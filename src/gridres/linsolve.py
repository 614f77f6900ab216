"""Grounded Laplacian linear solves from in-repo triangular factors.

Grounding node 0 removes the null mode of a connected graph's Laplacian:
the grounded system is the Laplacian without node 0's row and column,
``lap[1:, 1:]``, an (n-1) x (n-1) symmetric positive definite matrix A that
is factored directly, so the electrical oracle depends on no external
solver. ``_grounded`` is the one place that cuts it; a caller that wants
another node grounded permutes the Laplacian so that node comes first.
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
from .summation import EPS


class GroundedSolver:
    """Inverse Cholesky factor of a Laplacian grounded at node 0."""

    def __init__(self, lap: np.ndarray) -> None:
        self._inv = _inverse_factor(_grounded(lap))
        self._inv.flags.writeable = False
        self.n = lap.shape[0]

    @property
    def inverse_factor(self) -> np.ndarray:
        """Y = L^-1 for the grounded system A = L L^T, read-only.

        Y is lower-triangular with a positive diagonal, and Y^T Y = A^-1.
        A grounded Laplacian is an M-matrix, so every entry of Y is >= 0.
        """
        return self._inv

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Potential vector W with W[0] = 0 and L W = b off row 0.

        b need not sum to zero: row 0 is dropped, so whatever b lacks is
        extracted at the ground, node 0, as in the columns of green_matrix.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise ValueError(f"b must have shape ({self.n},)")
        y = self._inv
        w = np.zeros(self.n)
        w[1:] = y.T @ (y @ b[1:])
        return w

    def green_matrix(self) -> np.ndarray:
        """Inverse of the grounded system, embedded n x n with a zero row and column 0.

        Column u equals the potential for a unit current injected at u and
        extracted at node 0. Built as Y^T Y one row at a time, straight into
        the block g[1:, 1:]: Y is lower-triangular, so
        G[j, j:] = Y[j:, j]^T Y[j:, j:], one vector-matrix product, mirrored
        into column j.
        """
        y = self._inv
        g = np.zeros((self.n, self.n))
        inner = g[1:, 1:]
        for j in range(self.n - 1):
            row = inner[j, j:]
            np.matmul(y[j:, j], y[j:, j:], out=row)
            inner[j:, j] = row
        return g


def last_pivot(lap: np.ndarray) -> float:
    """Last pivot of the Cholesky factorization of a Laplacian grounded at node 0.

    Eliminating every other kept node first (Kron reduction) leaves the
    last node joined to the ground, node 0, by one edge, and the pivot is
    that edge's conductance. The pivot is returned as the column step
    computed it, not as the square of the factor's last diagonal entry.
    Raises SingularSystem as the factorization does, and ValueError for a
    Laplacian of fewer than two nodes, whose grounded system has no pivot.
    """
    return _cholesky(_grounded(lap))[1]


def _grounded(lap: np.ndarray) -> np.ndarray:
    """The grounded system: the square Laplacian without node 0's row and column.

    ValueError for a matrix that is not square, or that is empty and so has
    no node 0 to ground.
    """
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError("matrix must be square")
    if lap.shape[0] == 0:
        raise ValueError("an empty Laplacian has no node to ground")
    return lap[1:, 1:]


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

    The matrix is a grounded system, ``_grounded(lap)``, in every caller.

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
