import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import (
    DisconnectedGraph,
    Explicit,
    GroundedSolver,
    InvalidFamily,
    Ring,
    SingularSystem,
    build_laplacian,
    solve_grounded,
)
from gridres.linsolve import _cholesky
from gridres.verify import random_connected_graph

K3 = Explicit(3, [(0, 1), (1, 2), (0, 2)])


def test_single_resistor():
    lap = build_laplacian(Explicit(2, [(0, 1)]))
    w = solve_grounded(lap, np.array([1.0, -1.0]), ground=1)
    assert np.allclose(w, [1.0, 0.0], atol=1e-12)


def test_triangle_potential():
    lap = build_laplacian(K3)
    w = solve_grounded(lap, np.array([1.0, -1.0, 0.0]), ground=2)
    assert w[2] == 0.0
    assert abs((w[0] - w[1]) - 2.0 / 3.0) <= 1e-12


def test_ring4_parallel_paths():
    lap = build_laplacian(Ring(4))
    w = solve_grounded(lap, np.array([1.0, 0.0, -1.0, 0.0]), ground=2)
    assert abs((w[0] - w[2]) - 1.0) <= 1e-12


def test_unbalanced_injection_rejected():
    lap = build_laplacian(K3)
    with pytest.raises(ValueError):
        solve_grounded(lap, np.array([1.0, 0.0, 0.0]), ground=0)


def test_disconnected_graph_is_singular():
    lap = build_laplacian(Explicit(4, [(0, 1), (2, 3)]))
    with pytest.raises(SingularSystem):
        solve_grounded(lap, np.array([1.0, -1.0, 0.0, 0.0]), ground=0)
    assert issubclass(SingularSystem, DisconnectedGraph)


def test_ground_node_validation():
    lap = build_laplacian(K3)
    with pytest.raises(InvalidFamily, match="integer"):
        GroundedSolver(lap, 1.0)
    with pytest.raises(ValueError):
        GroundedSolver(lap, 3)
    assert GroundedSolver(lap, np.int64(2)).ground == 2


def test_last_pivot_is_the_kron_reduced_conductance():
    # Ground node 3 of a 4-ring: node 2, eliminated last, sees two paths of
    # one and three resistors in parallel, a conductance of 1 + 1/3.
    assert abs(GroundedSolver(build_laplacian(Ring(4)), 3).last_pivot - 4.0 / 3.0) <= 1e-15
    with pytest.raises(ValueError):
        GroundedSolver(build_laplacian(Explicit(1, [])), 0).last_pivot


def test_green_matrix_matches_column_solves():
    lap = build_laplacian(Ring(5))
    solver = GroundedSolver(lap, ground=0)
    green = solver.green_matrix()
    for u in (1, 3):
        b = np.zeros(5)
        b[u] = 1.0
        b[0] = -1.0
        assert np.allclose(green[:, u], solver.solve(b), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_residual_invariant(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    g = random_connected_graph(rng, max_nodes=40)
    lap = build_laplacian(g)
    b = np.zeros(g.n)
    u = int(rng.integers(0, g.n - 1))
    v = int(rng.integers(u + 1, g.n))
    b[u], b[v] = 1.0, -1.0
    ground = int(rng.integers(0, g.n))
    w = solve_grounded(lap, b, ground)
    assert w[ground] == 0.0
    residual = float(np.max(np.abs(lap @ w - b)))
    assert residual <= 1e-9 * float(np.max(np.abs(b)))


def _cholesky_reference(a):
    """The same column loop with one whole-slice numpy expression per update."""
    c = np.array(a, dtype=np.float64)
    for j in range(c.shape[0]):
        c[j, j] = np.sqrt(c[j, j] - c[j, :j] @ c[j, :j])
        c[j + 1 :, j] = (c[j + 1 :, j] - c[j + 1 :, :j] @ c[j, :j]) / c[j, j]
    return np.tril(c)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cholesky_bit_identical_to_reference_loop(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    g = random_connected_graph(rng, max_nodes=40)
    a = build_laplacian(g)[1:, 1:]
    assert np.array_equal(_cholesky(a), _cholesky_reference(a))
