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

import numpy as np

from .eigen import eigenvalues_symmetric
from .errors import InvalidFamily, SizeExceeded
from .families import Explicit, GraphFamily, Hypercube, Ring, Torus, require_int
from .laplacian import build_laplacian
from .linsolve import GroundedSolver
from .spectrum import (
    ResistanceResult,
    closed_axis_sum,
    exact_hypercube_dimension,
    spectral_rave,
    stream_from_eigenvalues,
)
from .summation import EPS, MAX_TERMS, CompensatedSum, block_sum, check_threads

ORACLE_NODE_CAP = 256


def rave_ring_exact(m: int) -> ResistanceResult:
    """Closed-form ring average resistance m/12 - 1/(12 m)."""
    m = Ring(m).m
    value = m / 12.0 - 1.0 / (12.0 * m)
    return ResistanceResult(value, "closed_form", 1, 2.0 * EPS * abs(value))


def rave_torus(
    dims: list[int] | tuple[int, ...],
    threads: int = 1,
    max_terms: int = MAX_TERMS,
) -> ResistanceResult:
    """Spectral average resistance of a toroidal grid.

    Sums (1/N) sum 1/lambda with the longest side in closed form, N / M_max
    rows (``closed_axis_sum``). ``terms`` and the ``max_terms`` cap still
    count the N - 1 eigenvalues and the N nodes. The enumerated sum over all
    N eigenvalues, ``spectral_rave(torus_spectrum(dims))``, is the
    independent check.
    """
    dims = Torus(tuple(dims)).dims
    n = math.prod(dims)
    if n > max_terms:
        raise SizeExceeded(f"{n} spectral terms exceed the cap {max_terms}")
    value, err = closed_axis_sum(dims, threads=threads)
    return ResistanceResult(value / n, "spectral", n - 1, err / n)


def rave_hypercube_binomial(d: int) -> ResistanceResult:
    """Hypercube average resistance via the binomial sum.

    Evaluates 2^{-d} * sum_{m=1..d} C(d, m) / (2m) with compensated
    summation, m descending so the smallest terms enter last.
    """
    d = exact_hypercube_dimension(d)
    acc = CompensatedSum()
    for m in range(d, 0, -1):
        acc.add(math.comb(d, m) / (2.0 * m))
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

    Grounds v and eliminates u last: the Laplacian is permuted so that u and
    then v are its last two nodes, and the grounded system is factored once.
    Eliminating every other node (Kron reduction) leaves one edge of
    conductance 1/R_uv between u and the grounded v, and that conductance
    is the last Cholesky pivot p, so R_uv = 1/p with no solve. Every node
    is still eliminated, so a disconnected graph raises DisconnectedGraph
    wherever the disconnection lies.
    """
    u = require_int(u, "node u")
    v = require_int(v, "node v")
    n = g.node_count()
    if u == v:
        raise ValueError("pairwise resistance requires two distinct nodes")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"nodes ({u}, {v}) outside [0, {n})")
    order = np.append(np.delete(np.arange(n), (u, v)), (u, v))
    lap = build_laplacian(g).take(order, 0).take(order, 1)
    return 1.0 / GroundedSolver(lap, ground=n - 1).last_pivot


def rave_definition_oracle(g: GraphFamily) -> ResistanceResult:
    """Definition-based oracle: all-pairs effective resistances, averaged.

    The definition sums ordered pairs with a 1/(2 N^2) prefactor; the loop
    below covers unordered pairs and doubles, which cancels the factor of
    two exactly. Pair resistances come from one grounded factorization and
    its basis-injection potentials.
    """
    n = g.node_count()
    if n > ORACLE_NODE_CAP:
        raise SizeExceeded(f"{n} nodes exceed the oracle cap {ORACLE_NODE_CAP}")
    if n == 1:
        return ResistanceResult(0.0, "oracle_definition", 0, 0.0)
    lap = build_laplacian(g)
    green = GroundedSolver(lap, ground=0).green_matrix()
    diag = np.diag(green)
    pair_reff = diag[:, None] + diag[None, :] - green - green.T
    iu = np.triu_indices(n, k=1)
    unordered = pair_reff[iu]
    total = 2.0 * float(np.sum(unordered))
    value = total / (2.0 * n * n)
    err = 2.0 * EPS * 2.0 * float(np.sum(np.abs(unordered))) / (2.0 * n * n)
    return ResistanceResult(value, "oracle_definition", n * (n - 1) // 2, err)


def _rave_green_trace(g: GraphFamily) -> ResistanceResult:
    """Average resistance from the trace of the Laplacian pseudo-inverse.

    (1/N) sum 1/lambda over the nonzero eigenvalues is tr(L^+)/N, and with
    the grounded Green matrix G, tr(L^+) = tr G - 1^T G 1 / N. Both sums are
    compensated. err_bound covers the rounding of these two sums only, scaled
    as the value is; the rounding of the Cholesky factorization and of the
    solves that produce G is not in it.
    """
    n = g.node_count()
    green = GroundedSolver(build_laplacian(g), ground=0).green_matrix()
    trace = block_sum(np.diag(green))
    total = block_sum(green)
    value = (trace.value - total.value / n) / n
    err = (trace.err_bound + total.err_bound / n) / n
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


def rave(g: GraphFamily, threads: int = 1, max_terms: int = MAX_TERMS) -> ResistanceResult:
    """Average resistance of any family, using the natural method for each.

    threads is checked on every route, also where it is not used.
    """
    threads = check_threads(threads)
    if isinstance(g, Ring):
        return rave_ring_exact(g.m)
    if isinstance(g, Torus):
        return rave_torus(g.dims, threads=threads, max_terms=max_terms)
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
    if d == 0:
        return 0.0
    # Scale each term by 2^{-(d+1)} before summing, so no term leaves the
    # float range however large d is.
    acc = CompensatedSum()
    for i in range(1, d + 1):
        acc.add(2.0 ** (i - d - 1) / i)
    return d * acc.value


def hypercube_ad_recursive(d: int) -> float:
    """Same coefficient via a_{k+1} = (1 + 1/k) a_k / 2 + 1/2, a_0 = 0."""
    d = Hypercube(d).d
    if d == 0:
        return 0.0
    a = 0.5  # a_1, the recursion seed past the vacuous k = 0 step
    for k in range(1, d):
        a = 0.5 * (1.0 + 1.0 / k) * a + 0.5
    return a
