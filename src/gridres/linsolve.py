"""Grounded Laplacian linear solves from in-repo triangular factors.

Grounding node 0 removes the null mode of a connected graph's Laplacian:
the grounded system is the Laplacian without node 0's row and column,
``lap[1:, 1:]``, an (n-1) x (n-1) symmetric positive definite matrix A that
is factored directly, so the electrical oracle depends on no external
solver. ``_grounded`` is the one place that cuts it; a caller that wants
another node grounded permutes the Laplacian so that node comes first.
One left-looking Cholesky loop, ``_left_looking``, serves two uses. Each
column is one matrix-vector product with the finished columns, subtracted
in place: its first entry is the pivot and the rest are the entries below
the diagonal, and one division by the pivot's square root finishes the
whole column, diagonal included.

- ``GroundedSolver`` runs it over the stacked [A; I], whose bottom half
  comes out as Y^T for the inverse Cholesky factor Y = L^-1. A solve is
  two matrix-vector products, Y^T (Y b), and the Green matrix
  A^-1 = Y^T Y is built one row at a time, one vector-matrix product
  each. There is no matrix-matrix product: on a 2-CPU machine at
  199 x 199, Y^T Y as one product right after the loop took 5-15 ms at
  default OpenBLAS threads (the threads had gone to sleep during the
  loop's matrix-vector calls), against 1-2 ms for the row-at-a-time
  build in most reads.
- ``last_pivot`` runs it over A alone and returns the last pivot, which
  is all one pairwise resistance needs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularSystem
from .summation import EPS


class GroundedSolver:
    """Inverse Cholesky factor of a Laplacian grounded at node 0, from one column loop."""

    def __init__(self, lap: np.ndarray) -> None:
        self._inv = _inverse_factor(_grounded(lap))
        self._inv.flags.writeable = False
        self.n = lap.shape[0]

    @property
    def inverse_factor(self) -> np.ndarray:
        """Y = L^-1 for the grounded system A = L L^T, read-only.

        Y is lower-triangular with a positive diagonal, and Y^T Y = A^-1.
        It is the bottom half of the column loop over the stacked [A; I],
        transposed. A grounded Laplacian is an M-matrix, so every entry of
        Y is >= 0 (see ``_inverse_factor``).
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
    """Y = L^-1 for the Cholesky factor L of an SPD matrix, from the stacked column loop.

    Factoring [[A, I], [I, .]] gives [[L, 0], [L21, .]] with L21 L^T = I,
    so L21 = L^-T = Y^T (Golub & Van Loan, Matrix Computations, 4.2). The
    working array is the 2m x m stack [A; I], and ``_left_looking`` writes
    L over its top half and Y^T over its bottom half. Y is then copied,
    transposed, over the spent L, and the bottom half is cut off, so no
    third m x m array is held. m = 0 gives a (0, 0) Y.

    Every entry of Y is >= 0, also in floating point, and the Green-trace
    bound relies on it. A grounded Laplacian is an M-matrix: its entries
    off the diagonal are <= 0. An entry of L below the diagonal starts as
    one of them, and each update subtracts products of two such entries of
    L, which are >= 0, so it stays <= 0. An entry of Y^T starts at 0 (1 on
    the diagonal, which no update changes), and each update subtracts
    products of a non-negative Y entry and a non-positive L entry, so it
    only grows. Every sum adds terms of one sign, so rounding keeps these
    signs, and dividing by a positive square root keeps them too.
    """
    m = a.shape[0]
    c = np.zeros((2 * m, m))
    c[:m] = a
    np.fill_diagonal(c[m:], 1.0)
    if m:
        _left_looking(c)
    c[:m] = c[m:].T
    # No view of c outlives the loop, so the buffer can shrink in place.
    c.resize((m, m), refcheck=False)
    return c


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor of an SPD matrix by left-looking elimination, and its last pivot.

    The matrix is a grounded system, ``_grounded(lap)``, in every caller.
    The factor is returned in a working copy: its lower triangle is L, and
    the strict upper triangle still holds a's entries. An empty matrix has
    no pivot and raises ValueError.
    """
    c = np.array(a, dtype=np.float64)
    if c.shape[0] == 0:
        raise ValueError("an empty matrix has no pivot")
    return c, _left_looking(c)


def _left_looking(c: np.ndarray) -> float:
    """Left-looking Cholesky of the m x m top of c, in place, and its last pivot.

    c is m x m, or the 2m x m stack of ``_inverse_factor``; the pivot
    floor is taken from the m x m top. Column j, for j = 0 .. m-1 in order,
    is one matrix-vector product with the finished columns,
    c[j:m+j+1, :j] c[j, :j], subtracted in place from c[j:m+j+1, j]. In
    the stack, the rows below m + j are identity rows, 0 in columns
    0 .. j, which the update would leave 0, so it skips them; in an m-row
    array the slice ends at m. The column's first entry is then the pivot;
    one at or below the floor raises SingularSystem. Dividing the whole
    column, diagonal included, by the pivot's square root finishes it.
    """
    m = c.shape[1]
    floor = _pivot_floor(c[:m])
    for j in range(m):
        stop = m + j + 1
        col = c[j:stop, j]
        col -= c[j:stop, :j] @ c[j, :j]
        pivot = float(col[0])
        if pivot <= floor:
            raise SingularSystem("grounded system is singular (disconnected graph)")
        col /= math.sqrt(pivot)
    return pivot
