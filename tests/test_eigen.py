import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import (
    Explicit,
    NoConvergence,
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
    tol = 1e-11
    eigs = eigenvalues_symmetric(a, tol=tol)
    # eigenvalue sums are rotation invariants
    assert abs(eigs.sum() - np.trace(a)) <= 1e-9 * max(1.0, abs(np.trace(a)))
    assert eigs.shape == (40,)
    assert np.all(np.diff(eigs) >= 0.0)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.eye(2), tol=0.0)


def test_no_convergence_cap(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(3))
    a = rng.normal(size=(30, 30))
    a = a + a.T
    monkeypatch.setattr("gridres.eigen.MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence):
        eigenvalues_symmetric(a)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_connected_graph_has_one_null_mode(seed):
    g = random_connected_graph(np.random.Generator(np.random.PCG64(seed)), max_nodes=50)
    lap = build_laplacian(g)
    eigs = eigenvalues_symmetric(lap, tol=1e-13)
    assert null_mode_count(eigs) == 1
    assert np.all(eigs[1:] > 0.0)
    trace = float(np.trace(lap))
    assert abs(eigs.sum() - trace) <= 1e-9 * trace


def test_disconnected_graph_has_two_null_modes():
    g = Explicit(4, [(0, 1), (2, 3)])
    eigs = eigenvalues_symmetric(build_laplacian(g))
    assert null_mode_count(eigs) == 2


def test_single_node():
    eigs = eigenvalues_symmetric(np.zeros((1, 1)))
    assert eigs.tolist() == [0.0]
