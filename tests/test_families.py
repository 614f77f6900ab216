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
    with pytest.raises(InvalidFamily, match="integer"):
        Ring(4.0)
    assert Ring(np.int64(5)).m == 5


def test_torus_rejects_non_integer_sides():
    # int() would truncate 4.7 and silently describe the 4 x 5 torus
    with pytest.raises(InvalidFamily, match="integer"):
        Torus((4.7, 5))
    assert Torus((np.int32(4), 5)).dims == (4, 5)


def test_hypercube_rejects_non_integer_dimension():
    with pytest.raises(InvalidFamily, match="integer"):
        Hypercube(2.5)
    assert Hypercube(np.uint8(3)).node_count() == 8


def test_explicit_rejects_non_integer_nodes():
    with pytest.raises(InvalidFamily, match="integer"):
        Explicit(3.9, [(0, 1)])
    with pytest.raises(InvalidFamily, match="integer"):
        Explicit(3, [(0, 1.5)])
    assert Explicit(np.int64(3), [(np.int64(0), 1)]).n == 3


def test_explicit_normalizes_edges():
    g = Explicit(3, [(2, 0), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})


def test_ring_edges():
    assert sorted(family_edges(Ring(4))) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert list(family_edges(Ring(1))) == []
    with pytest.raises(InvalidFamily):
        list(family_edges(Ring(2)))


def test_torus_edges_degree():
    g = Torus((3, 3))
    degree = {v: 0 for v in range(9)}
    edges = list(family_edges(g))
    assert len(edges) == len(set(tuple(sorted(e)) for e in edges)) == 18
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert all(deg == 4 for deg in degree.values())


def test_hypercube_edges_are_bit_flips():
    edges = list(family_edges(Hypercube(3)))
    assert len(edges) == 12
    assert all(bin(u ^ v).count("1") == 1 for u, v in edges)


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
