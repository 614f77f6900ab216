import numpy as np
import pytest

from gridres import Explicit, Hypercube, Ring, SizeExceeded, Torus, build_laplacian
from gridres.families import family_edges


def test_single_edge():
    lap = build_laplacian(Explicit(2, [(0, 1)]))
    assert lap.tolist() == [[1.0, -1.0], [-1.0, 1.0]]


def test_hypercube2_is_four_cycle():
    lap = build_laplacian(Hypercube(2))
    assert lap.shape[0] == 4
    assert np.all(np.diag(lap) == 2.0)
    # the four-cycle: every node has exactly two -1 entries
    off = lap - np.diag(np.diag(lap))
    assert np.all(off.sum(axis=1) == -2.0)


def test_torus33_structure():
    lap = build_laplacian(Torus((3, 3)))
    assert lap.shape[0] == 9
    assert np.all(np.diag(lap) == 4.0)
    off = lap - np.diag(np.diag(lap))
    assert np.all((off == 0.0) | (off == -1.0))
    assert np.all((off == -1.0).sum(axis=1) == 4)


@pytest.mark.parametrize(
    "family,degree",
    [(Ring(5), 2), (Torus((3, 4, 5)), 6), (Hypercube(4), 4)],
)
def test_degrees(family, degree):
    lap = build_laplacian(family)
    assert np.all(np.diag(lap) == degree)


def test_invariants_hold():
    for family in (Ring(6), Torus((3, 5)), Hypercube(3), Explicit(4, [(0, 1), (1, 2), (2, 3)])):
        n = family.node_count()
        lap = build_laplacian(family)
        assert lap.shape == (n, n)
        off = lap - np.diag(np.diag(lap))
        assert np.all((off == 0.0) | (off == -1.0))
        assert np.all(lap.sum(axis=1) == 0.0)
        assert np.array_equal(lap, lap.T)


@pytest.mark.parametrize(
    "family",
    [Ring(7), Torus((3, 4, 5)), Hypercube(4), Explicit(6, [(0, 5), (1, 2), (2, 5), (3, 4)])],
)
def test_matches_edge_by_edge_assembly(family):
    n = family.node_count()
    reference = np.zeros((n, n))
    for u, v in family_edges(family):
        reference[u, v] -= 1.0
        reference[v, u] -= 1.0
        reference[u, u] += 1.0
        reference[v, v] += 1.0
    matrix = build_laplacian(family)
    assert matrix.dtype == reference.dtype
    assert np.array_equal(matrix, reference)


def test_dense_limit():
    with pytest.raises(SizeExceeded):
        build_laplacian(Hypercube(13))


def test_single_node():
    lap = build_laplacian(Hypercube(0))
    assert lap.tolist() == [[0.0]]


@pytest.mark.parametrize(
    "family",
    [Ring(7), Torus((3, 4, 5)), Hypercube(4), Explicit(6, [(0, 5), (1, 2), (2, 5), (3, 4)])],
)
def test_order_relabels_first_and_last(family):
    lap = build_laplacian(family)
    n = family.node_count()
    for first, last in ((0, n - 1), (n - 1, 0), (2, 4), (4, 2), (1, n - 2), (n - 1, 1)):
        perm = [first, *(w for w in range(n) if w not in (first, last)), last]
        assert np.array_equal(build_laplacian(family, order=(first, last)), lap[np.ix_(perm, perm)])


def test_order_is_keyword_only():
    with pytest.raises(TypeError):
        build_laplacian(Ring(5), (0, 4))
