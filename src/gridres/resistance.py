"""Exact and definitional average-resistance computations.

Three independent routes coexist: closed-form expressions (ring formula,
hypercube binomial sum and recursion), spectral sums over closed-form
eigenvalue streams (a torus sums its longest side in closed form), and the
electrical-network oracle that solves grounded linear systems straight
from the definition. Cross-checking them is the package's core
correctness argument.

Explicit graphs have no closed-form spectrum. ``rave`` takes the Green
trace route for them (one Cholesky factorization); ``rave_dense_spectral``
runs the in-repo eigensolver (Householder tridiagonalisation and Sturm
bisection) instead and exists so that the oracle cross-checks compare two
routes that share no solver.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .eigen import eigenvalues_symmetric
from .errors import InvalidFamily, Overflow, SizeExceeded
from .families import Explicit, GraphFamily, Hypercube, Ring, Torus, require_int, require_positive_int
from .laplacian import build_laplacian
from .linsolve import GroundedSolver, last_pivot
from .spectrum import (
    MAX_ROWS,
    ResistanceResult,
    closed_axis_sum,
    spectral_rave,
    stream_from_eigenvalues,
)
from .summation import EPS, FLOAT_MAX, block_sum

ORACLE_NODE_CAP = 256


def rave_ring_exact(m: int) -> ResistanceResult:
    """Closed-form ring average resistance m/12 - 1/(12 m); Overflow past the float range."""
    m = Ring(m).m
    if m > FLOAT_MAX:
        raise Overflow("the ring size leaves the float range")
    value = m / 12.0 - 1.0 / (12.0 * m)
    return ResistanceResult(value, "closed_form", 1, 2.0 * EPS * abs(value))


def rave_torus(
    dims: list[int] | tuple[int, ...],
    threads: int = 1,
    max_terms: int = MAX_ROWS,
) -> ResistanceResult:
    """Spectral average resistance of a toroidal grid.

    Sums (1/N) sum 1/lambda with the longest side in closed form over one
    weighted row per mirror and permutation class of the other sides'
    indices (``closed_axis_sum``), at most ``max_terms`` of them; ``terms``
    counts the N - 1 eigenvalues. threads and max_terms must be integers
    >= 1 (InvalidFamily otherwise); the sum runs serially and does not use
    threads.
    """
    family = Torus(tuple(dims))
    require_positive_int(threads, "threads")
    max_terms = require_positive_int(max_terms, "max_terms")
    counts: dict[int, int] = {}  # side -> how many sides have that length, in increasing order
    for side in sorted(family.dims):
        counts[side] = counts.get(side, 0) + 1
    value, err = closed_axis_sum(list(counts.items()), max_rows=max_terms)
    return ResistanceResult(value, "spectral", math.prod(family.dims) - 1, err)


def rave_hypercube_binomial(d: int) -> ResistanceResult:
    """Hypercube average resistance via the binomial sum.

    Evaluates 2^{-d} * sum_{m=1..d} C(d, m) / (2m) by ``block_sum``, each
    term rounded once from the exact integer C(d, m); Overflow where 2^d
    leaves the float range (d >= 1024).
    """
    d = Hypercube(d).d
    if d >= sys.float_info.max_exp:
        raise Overflow(f"2^{d} hypercube nodes leave the float range")
    terms = np.empty(d)
    binom = 1  # C(d, m) for m = d, ..., 1, exact: C(d, m - 1) = C(d, m) m / (d - m + 1)
    for m in range(d, 0, -1):
        terms[d - m] = binom / (2.0 * m)
        binom = binom * m // (d - m + 1)
    acc = block_sum(terms)
    scale = float(2**d)
    return ResistanceResult(acc.value / scale, "closed_form", d, acc.err_bound / scale)


def rave_hypercube_recursive(d: int) -> ResistanceResult:
    """Hypercube average resistance via the dimension recursion.

    r(0) = 0 and r(k) = r(k-1)/2 + (1 - 2^{-k}) / (2k): adding a dimension
    halves the previous value and contributes one new spectral layer.
    """
    d = Hypercube(d).d
    value = 0.0
    for k in range(1, d + 1):
        value = 0.5 * value + (1.0 - 0.5**k) / (2.0 * k)
    return ResistanceResult(value, "recursion", d, 4.0 * EPS * value * max(d, 1))


def pairwise_reff(g: GraphFamily, u: int, v: int) -> float:
    """Effective resistance between two nodes of a unit-resistor network.

    Grounds v and eliminates u last: the Laplacian is assembled with v as
    its first node and u as its last (``build_laplacian``'s ``order``
    relabels the edge array, so no matrix is permuted), and
    ``linsolve.last_pivot`` grounds node 0 and factors the grounded system
    once by the left-looking Cholesky loop (no inverse factor is built).
    Each column of that loop is one matrix-vector product that yields its
    pivot and the entries below it together. Eliminating every other node
    (Kron reduction) leaves one edge of conductance 1/R_uv between u and
    the grounded v, and that conductance is the last Cholesky pivot p,
    read as computed, so R_uv = 1/p with no solve. Every node is still
    eliminated, so a disconnected graph raises DisconnectedGraph wherever
    the disconnection lies.
    """
    u = require_int(u, "node u")
    v = require_int(v, "node v")
    n = g.node_count()
    if u == v:
        raise ValueError("pairwise resistance requires two distinct nodes")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"nodes ({u}, {v}) outside [0, {n})")
    return 1.0 / last_pivot(build_laplacian(g, order=(v, u)))


def rave_definition_oracle(g: GraphFamily) -> ResistanceResult:
    """Definition-based oracle: all-pairs effective resistances, averaged.

    R_ave is the sum of the N(N-1)/2 unordered pair resistances over N^2
    (the definition's 1/(2 N^2) over ordered pairs), one ``block_sum``. The
    pairs come from the Green matrix of the Laplacian grounded at node 0,
    G = Y^T Y for one inverse Cholesky factor Y. err_bound is that sum's
    bound over N^2: it covers the pair sum, not the rounding of G.
    """
    n = g.node_count()
    if n > ORACLE_NODE_CAP:
        raise SizeExceeded(f"{n} nodes exceed the oracle cap {ORACLE_NODE_CAP}")
    acc = block_sum(_pair_resistances(_grounded_solver(g).green_matrix()))
    return ResistanceResult(acc.value / n**2, "oracle_definition", n * (n - 1) // 2, acc.err_bound / n**2)


def _grounded_solver(g: GraphFamily) -> GroundedSolver:
    """GroundedSolver(build_laplacian(g)), with the solver holding the only reference to the Laplacian.

    A class call keeps its arguments referenced, by the caller and by the
    argument tuple, until __init__ returns, so the n x n Laplacian would
    live through the factorization. Called as a plain function, __init__
    takes over the caller's reference to a temporary on CPython >= 3.11,
    and it drops the Laplacian once the stacked system holds it: 290 MiB
    peak RSS instead of 413 MiB for rave at 4,096 nodes.
    """
    solver = object.__new__(GroundedSolver)
    GroundedSolver.__init__(solver, build_laplacian(g))
    return solver


def _pair_resistances(green: np.ndarray) -> np.ndarray:
    """R_uv = (G_uu + G_vv - G_uv) - G_uv over the pairs u < v, row-major.

    green is a Green matrix as ``green_matrix`` builds it, exactly
    symmetric, so G_vu = G_uv is subtracted twice in the matrix's own
    order and no transposed pass is made. A boolean mask gathers the
    strict upper triangle in row-major order.
    """
    diag = np.diag(green)
    pair = np.add.outer(diag, diag)
    pair -= green
    pair -= green
    node = np.arange(green.shape[0])
    return pair[node[:, None] < node]


def _rave_green_trace(g: GraphFamily) -> ResistanceResult:
    """Average resistance from the trace of the Laplacian pseudo-inverse.

    (1/N) sum 1/lambda over the nonzero eigenvalues is tr(L^+)/N, and with
    the grounded Green matrix G, tr(L^+) = tr G - 1^T G 1 / N. G = Y^T Y for
    the inverse Cholesky factor Y, so tr G = sum Y^2 and 1^T G 1 = |Y 1|^2,
    and G is never formed. Both are compensated sums, over the m^2 squares
    of Y and the m squared row sums of Y (m = N - 1). Y is entrywise >= 0,
    so the row sums do not cancel: each is within (m - 1) eps/2 relative of
    its exact value whatever the order of its additions. err_bound covers
    the rounding of the two sums and of the row sums and their squares
    (first order, m eps relative to the second sum's mass), scaled as the
    value is; the rounding of the factorization that produces Y is not in
    it.
    """
    n = g.node_count()
    y = _grounded_solver(g).inverse_factor
    trace = block_sum(y * y)
    rows = y.sum(axis=1)
    total = block_sum(rows * rows)
    value = (trace.value - total.value / n) / n
    row_err = (n - 1) * EPS * total.abs_sum
    err = (trace.err_bound + (total.err_bound + row_err) / n) / n
    return ResistanceResult(value, "green_trace", n - 1, err)


def rave_dense_spectral(g: GraphFamily) -> ResistanceResult:
    """Spectral average resistance from a dense eigensolve of the Laplacian.

    Householder tridiagonalisation and Sturm bisection
    (``eigen.eigenvalues_symmetric``) share no solver with the Cholesky-based
    oracle, so this is the spectral side of the oracle cross-check for
    explicit graphs.
    """
    eigs = eigenvalues_symmetric(build_laplacian(g))
    return spectral_rave(stream_from_eigenvalues(eigs))


def rave(g: GraphFamily, threads: int = 1, max_terms: int = MAX_ROWS) -> ResistanceResult:
    """Average resistance of any family, using the natural method for each.

    threads and max_terms are checked on every route, although none uses
    threads and only tori use max_terms.
    """
    require_positive_int(threads, "threads")
    require_positive_int(max_terms, "max_terms")
    if isinstance(g, Ring):
        return rave_ring_exact(g.m)
    if isinstance(g, Torus):
        return rave_torus(g.dims, max_terms=max_terms)
    if isinstance(g, Hypercube):
        return rave_hypercube_binomial(g.d)
    if isinstance(g, Explicit):
        return _rave_green_trace(g)
    raise InvalidFamily(f"unknown graph family {type(g).__name__}")


def hypercube_ad_direct(d: int) -> float:
    """Growth coefficient a_d = d * 2^{-(d+1)} * sum_{i=1..d} 2^i / i.

    Scales the hypercube upper-bound sum by the dimension; the sequence
    tends to 1, certifying that d times the average resistance does too.
    """
    d = Hypercube(d).d
    # Scale each term by 2^{-(d+1)} before summing, so no term leaves the
    # float range however large d is.
    i = np.arange(1, d + 1)
    return d * block_sum(np.ldexp(1.0, i - d - 1) / i).value


def hypercube_ad_recursive(d: int) -> float:
    """Same coefficient via a_{k+1} = (1 + 1/k) a_k / 2 + 1/2, a_0 = 0."""
    d = Hypercube(d).d
    if d == 0:
        return 0.0
    a = 0.5  # a_1, the recursion seed past the vacuous k = 0 step
    for k in range(1, d):
        a = 0.5 * (1.0 + 1.0 / k) * a + 0.5
    return a
