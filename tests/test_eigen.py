import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import (
    Explicit,
    Ring,
    build_laplacian,
    eigenvalues_symmetric,
    null_mode_count,
)
from gridres.verify import random_connected_graph

K3 = Explicit(3, [(0, 1), (1, 2), (0, 2)])


def test_single_edge_spectrum():
    eigs = eigenvalues_symmetric(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.allclose(eigs, [0.0, 2.0], atol=1e-12)


def test_triangle_spectrum():
    eigs = eigenvalues_symmetric(build_laplacian(K3))
    assert np.allclose(eigs, [0.0, 3.0, 3.0], atol=1e-12)


def test_ring4_matches_closed_form():
    eigs = eigenvalues_symmetric(build_laplacian(Ring(4)))
    expected = sorted(2.0 - 2.0 * math.cos(2.0 * math.pi * i / 4) for i in range(4))
    assert np.allclose(eigs, expected, atol=1e-12)


def test_off_diagonal_norm_below_tol():
    rng = np.random.Generator(np.random.PCG64(7))
    a = rng.normal(size=(40, 40))
    a = a + a.T
    eigs = eigenvalues_symmetric(a)
    # eigenvalue sums are rotation invariants
    assert abs(eigs.sum() - np.trace(a)) <= 1e-9 * max(1.0, abs(np.trace(a)))
    assert eigs.shape == (40,)
    assert np.all(np.diff(eigs) >= 0.0)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.zeros((2, 3)))
    for bad in (np.float64(3.0), np.zeros(3)):
        with pytest.raises(ValueError, match="square"):
            eigenvalues_symmetric(bad)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            eigenvalues_symmetric(np.diag([1.0, value, 2.0]))


@pytest.mark.parametrize("seed, n", [(0, 3), (1, 17), (2, 60), (3, 101)])
def test_random_symmetric_invariants(seed, n):
    # Householder reflections are orthogonal similarities, so the trace and
    # the Frobenius norm of the input are the sum and the sum of squares of
    # its eigenvalues.
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.normal(size=(n, n))
    a = a + a.T
    before = a.copy()
    eigs = eigenvalues_symmetric(a)
    assert np.array_equal(a, before)  # the reflections work on a copy
    assert eigs.shape == (n,)
    assert np.all(np.diff(eigs) >= 0.0)
    assert eigs[0] < 0.0 < eigs[-1]
    assert abs(eigs.sum() - np.trace(a)) <= 1e-12 * float(np.abs(eigs).sum())
    frobenius2 = float(np.sum(a * a))
    assert abs(float(eigs @ eigs) - frobenius2) <= 1e-12 * frobenius2


def test_zero_off_diagonal():
    # Two components: the tridiagonal splits into a triangle and a 4-ring.
    disjoint = Explicit(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    eigs = eigenvalues_symmetric(build_laplacian(disjoint))
    assert np.allclose(eigs, [0.0, 0.0, 2.0, 2.0, 3.0, 3.0, 4.0], rtol=0.0, atol=1e-14)
    # Already diagonal: every reflection is skipped.
    eigs = eigenvalues_symmetric(np.diag([3.0, -1.0, 2.0, 0.0, -1.0]))
    assert np.allclose(eigs, [-1.0, -1.0, 0.0, 2.0, 3.0], rtol=0.0, atol=1e-14)


def test_small_and_zero_matrices():
    assert eigenvalues_symmetric(np.zeros((0, 0))).shape == (0,)
    assert abs(eigenvalues_symmetric(np.array([[-5.0]]))[0] + 5.0) <= 1e-14
    eigs = eigenvalues_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(eigs, [1.0, 3.0], rtol=0.0, atol=1e-14)
    assert eigenvalues_symmetric(np.zeros((6, 6))).tolist() == [0.0] * 6


def test_uses_no_external_eigensolver(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an external eigenvalue routine was called")

    for name in ("eigvalsh", "eigh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    eigs = eigenvalues_symmetric(build_laplacian(Ring(6)))
    expected = sorted(2.0 - 2.0 * math.cos(2.0 * math.pi * i / 6) for i in range(6))
    assert np.allclose(eigs, expected, rtol=0.0, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_connected_graph_has_one_null_mode(seed):
    g = random_connected_graph(np.random.Generator(np.random.PCG64(seed)), max_nodes=50)
    lap = build_laplacian(g)
    eigs = eigenvalues_symmetric(lap)
    assert null_mode_count(eigs) == 1
    assert np.all(eigs[1:] > 0.0)
    trace = float(np.trace(lap))
    assert abs(eigs.sum() - trace) <= 1e-9 * trace


def test_disconnected_graph_has_two_null_modes():
    g = Explicit(4, [(0, 1), (2, 3)])
    eigs = eigenvalues_symmetric(build_laplacian(g))
    assert null_mode_count(eigs) == 2


def test_null_mode_count_edges():
    assert null_mode_count(np.array([])) == 0
    assert null_mode_count(np.zeros(3)) == 3
    # a null mode is |lambda| <= 1e-9 max |lambda|, the edge included
    assert null_mode_count(np.array([1e-9, 1.0])) == 1
    assert null_mode_count(np.array([-1e-9, 0.0, 1.0])) == 2
    assert null_mode_count(np.array([0.0, np.nextafter(1e-9, 1.0), 1.0])) == 1
    assert null_mode_count(np.array([-2.0, 2e-9])) == 1


def test_single_node():
    eigs = eigenvalues_symmetric(np.zeros((1, 1)))
    assert eigs.tolist() == [0.0]
