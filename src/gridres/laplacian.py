"""Dense unit-weight Laplacian assembly for small graphs."""

from __future__ import annotations

import numpy as np

from .errors import SizeExceeded
from .families import GraphFamily, family_edges

DENSE_LIMIT = 4096


def build_laplacian(g: GraphFamily, *, order: tuple[int, int] | None = None) -> np.ndarray:
    """Assemble the dense unit-weight Laplacian of a graph family.

    Returns a symmetric float64 n x n matrix whose diagonal carries vertex
    degrees (2d on a torus node, d on a hypercube node); integer-valued
    entries are stored exactly, so row sums are exactly zero. Raises
    SizeExceeded above DENSE_LIMIT nodes.

    ``order=(first, last)``, two distinct nodes, relabels the edge array
    before assembly: node first becomes 0, node last becomes n - 1, and the
    others keep their relative order. The result is the Laplacian permuted
    symmetrically to that node order, entry for entry.
    """
    n = g.node_count()
    if n > DENSE_LIMIT:
        raise SizeExceeded(f"{n} nodes exceed the dense limit {DENSE_LIMIT}")
    edges = family_edges(g)
    if order is not None:
        first, last = order
        nodes = np.arange(n)
        label = nodes + (nodes < first) - (nodes > last)
        label[first], label[last] = 0, n - 1
        edges = label[edges]
    u, v = edges.T
    lap = np.zeros((n, n))
    # family_edges gives each unordered pair once, so plain assignment
    # (not accumulation) sets every off-diagonal entry.
    lap[u, v] = -1.0
    lap[v, u] = -1.0
    lap[np.diag_indices(n)] = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    return lap
