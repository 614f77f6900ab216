"""Grounded Laplacian linear solves from in-repo triangular factors.

Grounding one node removes the null mode of a connected graph's Laplacian;
the remaining (n-1) x (n-1) system A is symmetric positive definite and is
factored directly, so the electrical oracle depends on no external solver.
Two loops serve two jobs and share no logic:

- ``GroundedSolver`` builds the inverse Cholesky factor Y = L^-1 one row at
  a time. A solve is two matrix-vector products, Y^T (Y b), and the Green
  matrix A^-1 = Y^T Y is built one row at a time, one vector-matrix
  product each. There is no matrix-matrix product: on a 2-CPU machine at
  199 x 199, Y^T Y as one product right after the loop took 5-15 ms at
  default OpenBLAS threads (the threads had gone to sleep during the
  loop's matrix-vector calls), against 1-2 ms for the row loop in most
  reads.
- ``last_pivot`` runs the left-looking Cholesky loop and returns its last
  pivot, which is all one pairwise resistance needs. Each column is one
  matrix-vector product, L[j:, :j] L[j, :j], subtracted in place from
  a[j:, j]: its first entry is the pivot and the rest are the entries
  below the diagonal, and one division by the pivot's square root
  finishes the whole column, diagonal included.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularSystem
from .families import require_int
from .summation import EPS


class GroundedSolver:
    """Inverse Cholesky factor of a Laplacian with one grounded node."""

    def __init__(self, lap: np.ndarray, ground: int) -> None:
        _require_square(lap)
        n = lap.shape[0]
        ground = require_int(ground, "ground node")
        if not (0 <= ground < n):
            raise ValueError(f"ground node {ground} outside [0, {n})")
        self.n = n
        self.ground = ground
        self._keep = np.arange(n) != ground
        if ground == n - 1:
            reduced = lap[:-1, :-1]
        else:
            reduced = np.delete(np.delete(lap, ground, 0), ground, 1)
        self._inv = _inverse_factor(reduced)
        self._inv.flags.writeable = False

    @property
    def inverse_factor(self) -> np.ndarray:
        """Y = L^-1 for the grounded system A = L L^T, read-only.

        Y is lower-triangular with a positive diagonal, and Y^T Y = A^-1.
        A grounded Laplacian is an M-matrix, so every entry of Y is >= 0.
        """
        return self._inv

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Potential vector W with W[ground] = 0 and L W = b off the ground row.

        b need not sum to zero: the ground row is dropped, so whatever b
        lacks is extracted at the ground node, as in the columns of
        green_matrix.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise ValueError(f"b must have shape ({self.n},)")
        y = self._inv
        w = np.zeros(self.n)
        w[self._keep] = y.T @ (y @ b[self._keep])
        return w

    def green_matrix(self) -> np.ndarray:
        """Inverse of the grounded system, embedded n x n with zero ground row/col.

        Column u equals the potential for a unit current injected at u and
        extracted at the ground node. Built as Y^T Y one row at a time: Y is
        lower-triangular, so G[j, j:] = Y[j:, j]^T Y[j:, j:], one
        vector-matrix product, mirrored into column j.
        """
        y = self._inv
        m = self.n - 1
        inner = np.empty((m, m))
        for j in range(m):
            row = inner[j, j:]
            np.matmul(y[j:, j], y[j:, j:], out=row)
            inner[j:, j] = row
        g = np.zeros((self.n, self.n))
        g[np.ix_(self._keep, self._keep)] = inner
        return g


def last_pivot(matrix: np.ndarray) -> float:
    """Last pivot of the Cholesky factorization of an SPD matrix.

    For a Laplacian grounded at one node, eliminating every other kept node
    first (Kron reduction) leaves the last kept node joined to the ground by
    one edge, and the pivot is that edge's conductance. The pivot is
    returned as the column step computed it, not as the square of the
    factor's last diagonal entry. Raises SingularSystem as the
    factorization does, and ValueError for an empty matrix, which has no
    pivot.
    """
    _require_square(matrix)
    return _cholesky(matrix)[1]


def _require_square(matrix: np.ndarray) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")


def _pivot_floor(a: np.ndarray) -> float:
    """Pivots at or below this raise SingularSystem (a disconnected graph)."""
    return max(float(np.max(np.diag(a))), 1.0) * a.shape[0] * EPS * 16.0


def _inverse_factor(a: np.ndarray) -> np.ndarray:
    """Y = L^-1 for the Cholesky factor L of an SPD matrix, one row at a time.

    Row j, for j = 0 .. m-1 in order: with Y's finished leading j x j block,
    row j of L left of the diagonal is l = Y[:j, :j] a[:j, j], the pivot is
    a[j, j] - l . l, d is its square root, and the new row of Y is
    -(l Y[:j, :j]) / d left of the diagonal and 1/d on it. A pivot at or
    below the floor raises SingularSystem.
    """
    a = np.asarray(a, dtype=np.float64)
    m = a.shape[0]
    y = np.zeros((m, m))
    if m == 0:
        return y
    floor = _pivot_floor(a)
    for j in range(m):
        lead = y[:j, :j]
        # a is symmetric: its row j is its column j, and contiguous
        l = lead @ a[j, :j]
        pivot = float(a[j, j] - l @ l)
        if pivot <= floor:
            raise SingularSystem("grounded system is singular (disconnected graph)")
        d = math.sqrt(pivot)
        row = y[j, :j]
        np.matmul(l, lead, out=row)
        row /= -d
        y[j, j] = 1.0 / d
    return y


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor of an SPD matrix by left-looking elimination, and its last pivot.

    Column j, for j = 0 .. m-1 in order, is one matrix-vector product with
    the finished columns, L[j:, :j] L[j, :j], subtracted in place from
    a[j:, j]. The column's first entry is then the pivot; one at or below
    the floor raises SingularSystem. Dividing the whole column, diagonal
    included, by the pivot's square root finishes it. The factor is
    returned in the working array: its lower triangle is L, and the strict
    upper triangle still holds a's entries. An empty matrix has no pivot
    and raises ValueError.
    """
    m = a.shape[0]
    c = np.array(a, dtype=np.float64)
    if m == 0:
        raise ValueError("an empty matrix has no pivot")
    floor = _pivot_floor(c)
    for j in range(m):
        col = c[j:, j]
        col -= c[j:, :j] @ c[j, :j]
        pivot = float(col[0])
        if pivot <= floor:
            raise SingularSystem("grounded system is singular (disconnected graph)")
        col /= math.sqrt(pivot)
    return c, pivot
