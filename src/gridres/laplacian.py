"""Dense unit-weight Laplacian assembly for small graphs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFamily, SizeExceeded
from .families import GraphFamily, family_edges

DENSE_LIMIT = 4096


@dataclass(frozen=True)
class DenseLaplacian:
    """Symmetric n x n Laplacian with vertex degrees on the diagonal."""

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return np.diag(self.matrix).copy()

    def validate(self) -> None:
        """Check the structural invariants; raises InvalidFamily on failure."""
        a = self.matrix
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidFamily("Laplacian must be square")
        if not np.array_equal(a, a.T):
            raise InvalidFamily("Laplacian must be symmetric")
        off = a - np.diag(np.diag(a))
        if not np.all((off == 0.0) | (off == -1.0)):
            raise InvalidFamily("off-diagonal entries must be 0 or -1")
        if np.any(a.sum(axis=1) != 0.0):
            raise InvalidFamily("row sums must be exactly zero")


def build_laplacian(g: GraphFamily, dense_limit: int = DENSE_LIMIT) -> DenseLaplacian:
    """Assemble the dense unit-weight Laplacian of a graph family.

    The diagonal carries vertex degrees (2d on a torus node, d on a
    hypercube node); integer-valued entries are stored exactly in float64,
    so row sums are exactly zero.
    """
    n = g.node_count()
    if n > dense_limit:
        raise SizeExceeded(f"{n} nodes exceed the dense limit {dense_limit}")
    edges = np.array(list(family_edges(g)), dtype=np.intp).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    lap = np.zeros((n, n))
    # family_edges yields each unordered pair once, so plain assignment
    # (not accumulation) sets every off-diagonal entry.
    lap[u, v] = -1.0
    lap[v, u] = -1.0
    lap[np.diag_indices(n)] = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    return DenseLaplacian(lap)
