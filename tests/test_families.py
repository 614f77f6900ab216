import itertools
import re

import numpy as np
import pytest

from gridres import Explicit, Hypercube, InvalidFamily, Ring, Torus, read_edge_list
from gridres.families import family_edges


def test_node_counts():
    assert Ring(7).node_count() == 7
    assert Torus((3, 4, 5)).node_count() == 60
    assert Hypercube(0).node_count() == 1
    assert Hypercube(5).node_count() == 32
    assert Explicit(4, [(0, 1)]).node_count() == 4


def test_ring_validation():
    assert Ring(1).node_count() == 1
    with pytest.raises(InvalidFamily):
        Ring(0)


def test_torus_rejects_degenerate_sides():
    with pytest.raises(InvalidFamily, match="Hypercube"):
        Torus((4, 2))
    with pytest.raises(InvalidFamily):
        Torus((1, 5))
    with pytest.raises(InvalidFamily):
        Torus(())


def test_hypercube_validation():
    with pytest.raises(InvalidFamily):
        Hypercube(-1)


def test_explicit_validation():
    with pytest.raises(InvalidFamily, match="self-loop"):
        Explicit(3, [(1, 1)])
    with pytest.raises(InvalidFamily, match="outside"):
        Explicit(3, [(0, 3)])
    with pytest.raises(InvalidFamily, match="duplicate"):
        Explicit(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidFamily):
        Explicit(0, [])


def test_ring_rejects_non_integer_length():
    for bad in (4.0, True):
        with pytest.raises(InvalidFamily, match="integer"):
            Ring(bad)
    assert Ring(np.int64(5)).m == 5


def test_torus_rejects_non_integer_sides():
    # int() would truncate 4.7 and silently describe the 4 x 5 torus
    for bad in ((4.7, 5), (4, True)):
        with pytest.raises(InvalidFamily, match="integer"):
            Torus(bad)
    assert Torus((np.int32(4), 5)).dims == (4, 5)


def test_hypercube_rejects_non_integer_dimension():
    for bad in (2.5, True):
        with pytest.raises(InvalidFamily, match="integer"):
            Hypercube(bad)
    assert Hypercube(np.uint8(3)).node_count() == 8


def test_explicit_rejects_non_integer_nodes():
    for bad in (3.9, True):
        with pytest.raises(InvalidFamily, match="integer"):
            Explicit(bad, [(0, 1)])
    with pytest.raises(InvalidFamily, match="integer"):
        Explicit(3, [(0, 1.5)])
    assert Explicit(np.int64(3), [(np.int64(0), 1)]).n == 3


def test_explicit_normalizes_edges():
    g = Explicit(3, [(2, 0), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})


def test_ring_edges():
    assert sorted(family_edges(Ring(4)).tolist()) == [[0, 1], [0, 3], [1, 2], [2, 3]]
    assert family_edges(Ring(1)).tolist() == []
    with pytest.raises(InvalidFamily):
        family_edges(Ring(2))


def test_explicit_edges_sorted_lower_endpoint_first():
    g = Explicit(6, [(5, 0), (2, 1), (0, 3), (4, 2), (1, 0), (3, 5)])
    edges = family_edges(g)
    assert edges.dtype == np.intp
    assert edges.tolist() == [[0, 1], [0, 3], [0, 5], [1, 2], [2, 4], [3, 5]]
    empty = family_edges(Explicit(3, []))
    assert empty.shape == (0, 2) and empty.dtype == np.intp


def test_torus_edges_degree():
    g = Torus((3, 3))
    degree = {v: 0 for v in range(9)}
    edges = family_edges(g).tolist()
    assert len(edges) == len(set(tuple(sorted(e)) for e in edges)) == 18
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert all(deg == 4 for deg in degree.values())


def test_hypercube_edges_are_bit_flips():
    edges = family_edges(Hypercube(3)).tolist()
    assert len(edges) == 12
    assert all(bin(u ^ v).count("1") == 1 for u, v in edges)


def _pairs_by_rule(n: int, adjacent) -> list[list[int]]:
    return [[u, v] for u in range(n) for v in range(u + 1, n) if adjacent(u, v)]


def _rows_once(edges: np.ndarray) -> list[list[int]]:
    rows = edges.tolist()
    assert edges.dtype == np.intp and edges.shape == (len(rows), 2)
    assert all(u < v for u, v in rows)
    assert len(set(map(tuple, rows))) == len(rows)
    return sorted(rows)


@pytest.mark.parametrize("dims", [(3, 4, 5), (3, 7), (5,), (4, 4)])
def test_torus_edges_match_coordinate_rule(dims):
    # adjacent iff the coordinates differ by +-1 mod M_i in exactly one axis
    coords = list(itertools.product(*(range(m) for m in dims)))  # row-major

    def adjacent(u, v):
        moved = [(s, m) for a, b, m in zip(coords[u], coords[v], dims) if (s := (b - a) % m)]
        return len(moved) == 1 and moved[0][0] in (1, moved[0][1] - 1)

    assert _rows_once(family_edges(Torus(dims))) == _pairs_by_rule(len(coords), adjacent)


@pytest.mark.parametrize("d", range(7))
def test_hypercube_edges_match_hamming_distance(d):
    expected = _pairs_by_rule(2**d, lambda u, v: bin(u ^ v).count("1") == 1)
    assert _rows_once(family_edges(Hypercube(d))) == expected


@pytest.mark.parametrize("m", [3, 4, 5, 9])
def test_ring_edges_are_the_one_axis_torus(m):
    assert family_edges(Ring(m)).tolist() == family_edges(Torus((m,))).tolist()
    assert _rows_once(family_edges(Ring(m))) == _pairs_by_rule(m, lambda u, v: (v - u) % m in (1, m - 1))


def test_edgeless_families_give_an_empty_array():
    for g in (Ring(1), Hypercube(0), Explicit(2, [])):
        edges = family_edges(g)
        assert edges.shape == (0, 2) and edges.dtype == np.intp


def test_read_edge_list(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# a triangle\n3\n0 1\n\n1 2\n0 2\n")
    g = read_edge_list(path)
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_read_edge_list_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(InvalidFamily):
        read_edge_list(empty)
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1 2\n")
    with pytest.raises(InvalidFamily):
        read_edge_list(bad)


@pytest.mark.parametrize("text,lineno", [("3\n0 1.5\n", 2), ("three\n", 1), ("# n\n3\n0 1\nx 2\n", 4)])
def test_read_edge_list_non_integer(tmp_path, text, lineno):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    with pytest.raises(InvalidFamily, match=re.escape(f"{path}:{lineno}: expected integers")):
        read_edge_list(path)
