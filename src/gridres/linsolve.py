"""Grounded Laplacian linear solves via an in-repo Cholesky factorization.

Grounding one node removes the null mode of a connected graph's Laplacian;
the remaining (n-1) x (n-1) system is symmetric positive definite and is
factored directly. Keeping the factorization in-repo makes the electrical
oracle independent of any external solver.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularSystem
from .families import require_int
from .summation import EPS


class GroundedSolver:
    """Reusable factorization of a Laplacian with one grounded node."""

    def __init__(self, lap: np.ndarray, ground: int) -> None:
        n = lap.shape[0]
        ground = require_int(ground, "ground node")
        if not (0 <= ground < n):
            raise ValueError(f"ground node {ground} outside [0, {n})")
        self.n = n
        self.ground = ground
        self._keep = np.arange(n) != ground
        if ground == n - 1:
            # a view: _cholesky copies its input anyway
            reduced = lap[:-1, :-1]
        else:
            reduced = np.delete(np.delete(lap, ground, 0), ground, 1)
        self._chol = _cholesky(reduced)

    @property
    def last_pivot(self) -> float:
        """Last pivot of the factorization: the factor's last diagonal, squared.

        Eliminating every other kept node first (Kron reduction) leaves the
        last kept node joined to the ground by one edge, and the pivot is
        that edge's conductance.
        """
        if self.n < 2:
            raise ValueError("a single grounded node leaves no pivot")
        d = float(self._chol[-1, -1])
        return d * d

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Potential vector W with W[ground] = 0 and L W = b off the ground row."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise ValueError(f"b must have shape ({self.n},)")
        y = _solve_lower(self._chol, b[self._keep])
        x = _solve_upper(self._chol, y)
        w = np.zeros(self.n)
        w[self._keep] = x
        return w

    def green_matrix(self) -> np.ndarray:
        """Inverse of the grounded system, embedded n x n with zero ground row/col.

        Column u equals the potential for a unit current injected at u and
        extracted at the ground node.
        """
        m = self.n - 1
        y = _solve_lower(self._chol, np.eye(m))
        x = _solve_upper(self._chol, y)
        g = np.zeros((self.n, self.n))
        g[np.ix_(self._keep, self._keep)] = x
        return g


def solve_grounded(lap: np.ndarray, b: np.ndarray, ground: int) -> np.ndarray:
    """One-shot grounded solve that first checks the injection is balanced.

    This is the entry for a caller-supplied current injection b: it raises
    ValueError unless b sums to zero, then solves with a fresh
    GroundedSolver. GroundedSolver.solve does not check this on purpose: it
    drops the ground row, so whatever b lacks is extracted at the ground
    node, and the columns of green_matrix are exactly such injections (a
    unit current at u, extracted at the ground). Raises SingularSystem when
    the graph is disconnected.
    """
    b = np.asarray(b, dtype=np.float64)
    scale = float(np.abs(b).sum())
    if abs(float(b.sum())) > 1e-9 * max(scale, 1.0):
        raise ValueError("current injection b must sum to zero")
    return GroundedSolver(lap, ground).solve(b)


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular factor of an SPD matrix by left-looking elimination.

    Column j, for j = 0 .. m-1 in order: with r the finished row j of the
    factor left of the diagonal, the pivot is a[j, j] - r . r, the diagonal
    is its square root d, and the entries below it become
    (a[j+1:, j] - L[j+1:, :j] r) / d, updated in place. A pivot at or below
    the floor raises SingularSystem.
    """
    m = a.shape[0]
    c = np.array(a, dtype=np.float64)
    if m == 0:
        return c
    floor = max(float(np.max(np.diag(c))), 1.0) * m * EPS * 16.0
    for j in range(m):
        r = c[j, :j]
        pivot = float(c[j, j] - r @ r)
        if pivot <= floor:
            raise SingularSystem("grounded system is singular (disconnected graph)")
        d = math.sqrt(pivot)
        c[j, j] = d
        if j + 1 < m:
            col = c[j + 1 :, j]
            col -= c[j + 1 :, :j] @ r
            col /= d
    return np.tril(c)


def _solve_lower(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = c.shape[0]
    y = np.array(b, dtype=np.float64)
    for j in range(m):
        y[j] = (y[j] - c[j, :j] @ y[:j]) / c[j, j]
    return y


def _solve_upper(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    m = c.shape[0]
    x = np.array(y, dtype=np.float64)
    for j in range(m - 1, -1, -1):
        x[j] = (x[j] - c[j + 1 :, j] @ x[j + 1 :]) / c[j, j]
    return x
