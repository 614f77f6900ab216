import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridres.linsolve
from gridres import (
    DisconnectedGraph,
    Explicit,
    GroundedSolver,
    Hypercube,
    Ring,
    SingularSystem,
    Torus,
    build_laplacian,
    pairwise_reff,
    rave,
    rave_definition_oracle,
)
from gridres.linsolve import _left_looking, last_pivot
from gridres.verify import random_connected_graph

K3 = Explicit(3, [(0, 1), (1, 2), (0, 2)])


def _ground_first(lap, ground):
    """The Laplacian relabelled so that node ``ground`` is node 0, and the new order."""
    order = np.concatenate(([ground], np.delete(np.arange(lap.shape[0]), ground)))
    return lap[np.ix_(order, order)], order


def test_single_resistor():
    lap = build_laplacian(Explicit(2, [(0, 1)]))
    w = GroundedSolver(lap).solve(np.array([-1.0, 1.0]))
    assert np.allclose(w, [0.0, 1.0], atol=1e-12)


def test_triangle_potential():
    lap = build_laplacian(K3)
    w = GroundedSolver(lap).solve(np.array([0.0, 1.0, -1.0]))
    assert w[0] == 0.0
    assert abs((w[1] - w[2]) - 2.0 / 3.0) <= 1e-12


def test_ring4_parallel_paths():
    lap = build_laplacian(Ring(4))
    w = GroundedSolver(lap).solve(np.array([-1.0, 0.0, 1.0, 0.0]))
    assert abs((w[2] - w[0]) - 1.0) <= 1e-12


def test_disconnected_graph_is_singular():
    lap = build_laplacian(Explicit(4, [(0, 1), (2, 3)]))
    with pytest.raises(SingularSystem):
        GroundedSolver(lap).solve(np.array([1.0, -1.0, 0.0, 0.0]))
    assert issubclass(SingularSystem, DisconnectedGraph)


def test_ground_node_validation():
    # Node 0 is the ground: no ground argument is taken, and an empty
    # Laplacian, which has no node 0, is refused.
    lap = build_laplacian(K3)
    with pytest.raises(TypeError):
        GroundedSolver(lap, 0)
    for entry in (GroundedSolver, last_pivot):
        with pytest.raises(ValueError, match="no node to ground"):
            entry(np.zeros((0, 0)))
    one_node = GroundedSolver(build_laplacian(Explicit(1, [])))
    assert one_node.inverse_factor.shape == (0, 0)
    assert one_node.green_matrix().shape == (1, 1)


def test_matrix_must_be_square():
    for bad in (np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2))):
        for entry in (GroundedSolver, last_pivot):
            with pytest.raises(ValueError, match="square"):
                entry(bad)


def test_last_pivot_is_the_kron_reduced_conductance():
    # Ground node 0 of a 4-ring: node 3, eliminated last, sees two paths of
    # one and three resistors in parallel, a conductance of 1 + 1/3.
    assert abs(last_pivot(build_laplacian(Ring(4))) - 4.0 / 3.0) <= 1e-15
    with pytest.raises(ValueError, match="no pivot"):
        last_pivot(build_laplacian(Explicit(1, [])))
    with pytest.raises(SingularSystem):
        last_pivot(build_laplacian(Explicit(3, [(0, 1)])))


def test_last_pivot_leaves_its_argument_alone():
    # last_pivot is public: it factors a copy of the grounded system, never the caller's Laplacian.
    lap = build_laplacian(random_connected_graph(np.random.Generator(np.random.PCG64(3)), max_nodes=30))
    before = lap.copy()
    assert last_pivot(lap) > 0.0
    assert np.array_equal(lap, before)


def test_green_matrix_matches_column_solves():
    lap = build_laplacian(Ring(5))
    solver = GroundedSolver(lap)
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
    lap, order = _ground_first(lap, ground)
    b = b[order]
    w = GroundedSolver(lap).solve(b)
    assert w[0] == 0.0
    residual = float(np.max(np.abs(lap @ w - b)))
    assert residual <= 1e-9 * float(np.max(np.abs(b)))


def _cholesky_reference(a):
    """The same column loop with one whole-slice numpy expression per update."""
    c = np.array(a, dtype=np.float64)
    for j in range(c.shape[0]):
        c[j:, j] = c[j:, j] - c[j:, :j] @ c[j, :j]
        c[j:, j] = c[j:, j] / np.sqrt(c[j, j])
    return np.tril(c)


def _cholesky_previous(a):
    """The earlier loop: the pivot from its own dot product, then the column below it."""
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
    lap = build_laplacian(g)
    a = lap[1:, 1:]
    work = a.copy()
    pivot = _left_looking(work)
    factor = np.tril(work)  # the working array's lower triangle is the factor
    assert np.array_equal(factor, _cholesky_reference(a))
    assert pivot == last_pivot(lap)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cholesky_within_rounding_of_previous_loop(seed):
    # One product per column takes the pivot from the matrix-vector product
    # and divides the diagonal by its own square root, so the factor may
    # move by a few rounding errors from the earlier two-expression loop.
    rng = np.random.Generator(np.random.PCG64(seed))
    g = random_connected_graph(rng, max_nodes=100)
    a = build_laplacian(g)[1:, 1:]
    m = a.shape[0]
    work = a.copy()
    pivot = _left_looking(work)
    factor = np.tril(work)
    eps = np.finfo(np.float64).eps
    assert np.max(np.abs(factor - _cholesky_previous(a))) <= 2 * m * eps * np.max(np.abs(factor))
    assert np.max(np.abs(factor @ factor.T - a)) <= 2 * m * eps * np.max(np.abs(a))
    assert abs(pivot - factor[-1, -1] ** 2) <= 2 * m * eps * pivot


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_inverse_factor_invariants(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    g = random_connected_graph(rng, max_nodes=100)
    lap = build_laplacian(g)
    ground = int(rng.integers(0, g.n))
    y = GroundedSolver(_ground_first(lap, ground)[0]).inverse_factor
    a = np.delete(np.delete(lap, ground, 0), ground, 1)
    m = g.n - 1
    assert y.shape == (m, m)
    assert np.array_equal(y, np.tril(y))
    assert np.all(np.diag(y) > 0.0)
    # a grounded Laplacian is an M-matrix: its inverse factor is >= 0
    assert np.all(y >= 0.0)
    assert np.max(np.abs(y @ a @ y.T - np.eye(m))) <= 1e-12
    with pytest.raises(ValueError):
        y[0, 0] = 1.0


def _inverse_factor_previous(a):
    """The earlier row loop: two matrix-vector products per row of Y."""
    m = a.shape[0]
    y = np.zeros((m, m))
    for j in range(m):
        lead = y[:j, :j]
        l = lead @ a[j, :j]
        d = np.sqrt(a[j, j] - l @ l)
        y[j, :j] = -(l @ lead) / d
        y[j, j] = 1.0 / d
    return y


def _assert_inverse_factor_within_rounding_of_previous_loop(lap):
    a = lap[1:, 1:]
    m = a.shape[0]
    eps = np.finfo(np.float64).eps
    y = GroundedSolver(lap).inverse_factor
    assert np.max(np.abs(y - _inverse_factor_previous(a))) <= 2 * m * eps * np.max(y)
    stacked = np.vstack((a, np.eye(m)))
    pivot = _left_looking(stacked)
    assert np.array_equal(stacked[m:].T, y)
    assert abs(pivot - last_pivot(lap)) <= 2 * m * eps * pivot


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_inverse_factor_within_rounding_of_previous_loop(seed):
    # The stacked column loop and the row loop order their sums differently,
    # so Y may move by a few rounding errors.
    g = random_connected_graph(np.random.Generator(np.random.PCG64(seed)), max_nodes=100)
    _assert_inverse_factor_within_rounding_of_previous_loop(build_laplacian(g))


@pytest.mark.parametrize(
    "family",
    [Torus((3, 4)), Torus((8, 12)), Torus((10, 20)), Torus((5, 5, 5)), Hypercube(7)],
    ids=str,
)
def test_inverse_factor_within_rounding_of_previous_loop_lattices(family):
    _assert_inverse_factor_within_rounding_of_previous_loop(build_laplacian(family))


def test_pivot_floor_reads_the_grounded_system(monkeypatch):
    # The stack [A; I] has 2m rows; the floor scales with m, the system's size.
    shapes = []
    floor = gridres.linsolve._pivot_floor

    def recording(a):
        shapes.append(a.shape)
        return floor(a)

    monkeypatch.setattr(gridres.linsolve, "_pivot_floor", recording)
    lap = build_laplacian(Ring(6))
    GroundedSolver(lap)
    last_pivot(lap)
    assert shapes == [(5, 5), (5, 5)]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_green_matrix_inverts_the_grounded_system(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    g = random_connected_graph(rng, max_nodes=100)
    lap = build_laplacian(g)
    ground = int(rng.integers(0, g.n))
    lap = _ground_first(lap, ground)[0]
    green = GroundedSolver(lap).green_matrix()
    assert np.array_equal(green, green.T)
    assert not green[0].any()
    assert np.max(np.abs(lap[1:] @ green[:, 1:] - np.eye(g.n - 1))) <= 1e-12


@pytest.mark.parametrize("isolated", [0, 2, 4])
def test_isolated_node_is_disconnected(isolated):
    # a path on the four other nodes, with the isolated node first, in the
    # middle or last
    others = [v for v in range(5) if v != isolated]
    g = Explicit(5, list(zip(others, others[1:])))
    b = np.zeros(5)
    b[others[0]], b[others[-1]] = 1.0, -1.0
    with pytest.raises(DisconnectedGraph):
        rave(g)
    with pytest.raises(DisconnectedGraph):
        rave_definition_oracle(g)
    for ground in range(5):
        lap, order = _ground_first(build_laplacian(g), ground)
        with pytest.raises(DisconnectedGraph):
            GroundedSolver(lap).solve(b[order])


def test_dense_routes_call_no_np_linalg(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a dense route called np.linalg")

    for name in np.linalg.__all__:
        attr = getattr(np.linalg, name)
        if callable(attr) and not isinstance(attr, type):
            monkeypatch.setattr(np.linalg, name, forbidden)
    g = random_connected_graph(np.random.Generator(np.random.PCG64(11)), max_nodes=60)
    lap = build_laplacian(g)
    b = np.zeros(g.n)
    b[0], b[-1] = 1.0, -1.0
    assert rave(g).value > 0.0
    assert rave_definition_oracle(g).value > 0.0
    assert pairwise_reff(g, 0, g.n - 1) > 0.0
    assert GroundedSolver(lap).solve(b)[0] == 0.0
    assert GroundedSolver(lap).green_matrix().shape == (g.n, g.n)
