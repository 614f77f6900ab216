"""Self-contained symmetric eigensolver (cyclic Jacobi rotations).

No external eigenvalue routine is consulted anywhere in the package: the
dense spectra that cross-validate the closed-form streams come from this
module alone.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import NoConvergence

MAX_SWEEPS = 100
# Above this size a cyclic Jacobi sweep is noticeably slow; the dense
# route is meant for cross-checks at desk scale.
SOFT_SIZE_LIMIT = 500


def eigenvalues_symmetric(matrix: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted nondecreasing.

    Cyclic Jacobi: sweeps of plane rotations annihilate off-diagonal
    entries until the off-diagonal Frobenius norm drops below
    tol * ||A||_F. Raises NoConvergence after MAX_SWEEPS sweeps.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    a = np.asarray(matrix, dtype=np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("matrix must be square")
    if n > SOFT_SIZE_LIMIT:
        warnings.warn(
            f"dense Jacobi eigensolve on n={n} > {SOFT_SIZE_LIMIT} nodes will be slow",
            stacklevel=2,
        )
    norm = float(np.linalg.norm(a))
    if n == 1 or norm == 0.0:
        return np.sort(np.diag(a).astype(np.float64))
    if float(np.max(np.abs(a - a.T))) > tol * norm:
        raise ValueError("matrix is not symmetric")

    a = np.array((a + a.T) / 2.0, dtype=np.float64)
    target = tol * norm
    # Entries at or below this level cannot lift the off-diagonal norm
    # back above the target, so rotating them is wasted work.
    skip = target / (8.0 * n)

    for _ in range(MAX_SWEEPS):
        off = math.sqrt(2.0) * float(np.linalg.norm(np.triu(a, 1)))
        if off <= target:
            return np.sort(np.diag(a))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    raise NoConvergence(f"Jacobi did not reach off-norm {target:g} in {MAX_SWEEPS} sweeps")


def null_mode_count(eigenvalues: np.ndarray) -> int:
    """Number of eigenvalues treated as null modes.

    An eigenvalue is a null mode iff |lambda| <= 1e-9 * lambda_max; a
    connected graph has exactly one.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    if eigenvalues.size == 0:
        return 0
    lam_max = float(np.max(np.abs(eigenvalues)))
    if lam_max == 0.0:
        return int(eigenvalues.size)
    return int(np.count_nonzero(np.abs(eigenvalues) <= 1e-9 * lam_max))
