"""Self-contained symmetric eigensolver: Householder tridiagonalisation and
Sturm-count bisection (Golub & Van Loan, Matrix Computations, 8.3-8.4).

No external eigenvalue routine is consulted anywhere in the package: the
dense spectra that cross-validate the closed-form streams come from this
module alone. Both steps are direct, so there is no tolerance, no
iteration cap and no convergence failure.
"""

from __future__ import annotations

import math

import numpy as np

from .summation import EPS


def eigenvalues_symmetric(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted nondecreasing.

    n - 2 Householder reflections reduce the matrix to a tridiagonal (d, e),
    each by one matrix-vector product and one symmetric rank-2 update.
    Bisection then brackets all n eigenvalues at once, from the Gershgorin
    bound b until every bracket is narrower than 4 eps b (about 52 halvings).
    The Sturm count at shift x is the number of q_i <= 0 in
    q_i = d_i - x - e_{i-1}^2 / q_{i-1}. As in LAPACK's dstebz, a |q_i| below
    pivmin = tiny * max(1, max e^2) becomes -pivmin, so no division
    overflows. All brackets start equal and part at shared midpoints, so the
    output is sorted.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if float(np.max(np.abs(a - a.T), initial=0.0)) > 1e-12 * float(np.linalg.norm(a)):
        raise ValueError("matrix is not symmetric")
    a = (a + a.T) / 2.0
    n = a.shape[0]
    bound = float(np.max(np.abs(a).sum(axis=1), initial=0.0))
    # e2[i] = e_{i-1}^2: the count needs only the squares, so no signs are kept
    e2 = np.zeros(n)
    for k in range(n - 2):
        x = a[k + 1 :, k]
        e2[k + 1] = float(x @ x)
        if e2[k + 1] == 0.0:
            continue
        v = x.copy()
        v[0] += math.copysign(math.sqrt(e2[k + 1]), x[0])
        beta = 2.0 / float(v @ v)
        block = a[k + 1 :, k + 1 :]
        p = beta * (block @ v)
        w = p - (0.5 * beta * float(p @ v)) * v
        block -= np.outer(v, w) + np.outer(w, v)
    if n > 1:
        e2[-1] = a[-1, -2] ** 2
    pivmin = float(np.finfo(np.float64).tiny) * max(1.0, float(np.max(e2, initial=0.0)))
    pairs = list(zip(np.diag(a).tolist(), e2.tolist()))
    rank = np.arange(n)
    lo, hi = np.full(n, -bound), np.full(n, bound)
    while float(np.max(hi - lo, initial=0.0)) > 4.0 * EPS * bound:
        mid = 0.5 * (lo + hi)
        count = np.zeros(n, dtype=np.intp)
        q = np.ones(n)
        for di, ei2 in pairs:
            q = di - mid - ei2 / q
            q = np.where(np.abs(q) < pivmin, -pivmin, q)
            count += q <= 0.0
        left = count > rank
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
    return 0.5 * (lo + hi)


def null_mode_count(eigenvalues: np.ndarray) -> int:
    """Number of eigenvalues treated as null modes.

    An eigenvalue is a null mode iff |lambda| <= 1e-9 * max |lambda|, every
    entry of an all-zero spectrum; a connected graph has exactly one.
    """
    magnitudes = np.abs(np.asarray(eigenvalues, dtype=np.float64))
    return int(np.count_nonzero(magnitudes <= 1e-9 * np.max(magnitudes, initial=0.0)))
