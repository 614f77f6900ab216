"""Estimators for the continuum limit of the spectral average.

The target is the integral over the unit cube of
1 / (2d - 2 sum_i cos(2 pi x_i)) = 1 / (4 sum_i sin^2(pi x_i)), which the
equal-sided torus average approaches as the side length grows (d >= 3; the
integrand's origin singularity is integrable there and the integral
diverges for d = 2).

The lattice sums are means from ``spectrum.closed_axis_sum`` over one
(side, d) group: the midpoint rule averages 1 / sum_i t[h_i] over the
grid^d "midpoint" lattice, whose points never hit the singular lattice
images of the origin, and ``interior_sum`` over the "interior" lattice, the
cycle points with no zero index. A budget counts lattice points, not the
C(ceil(grid/2) + d - 2, d - 1) folded rows summed, which
``spectrum.check_lattice`` caps. Those sums run serially. Seeded Monte
Carlo is the one estimator that uses worker threads; it draws a fixed
per-block sample stream, so no result depends on the worker count. Its
integrand's denominator sums sin^2 over each sample's coordinates with
one of two kernels, chosen once per process from numpy's CPU dispatch:
through tan where numpy runs float64 tan as SIMD code, through sin
elsewhere (see ``_select_sin_squares``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import DivergentIntegral, InsufficientBudget, InvalidFamily, SingularPoint, SizeExceeded
from .families import require_int, require_positive_int
from .spectrum import check_lattice, closed_axis_sum
from .summation import BASE_BLOCK, EPS, CompensatedSum, block_ranges, block_sum, fold, map_blocks

MIN_BUDGET = 10**4
# Monte Carlo budgets above 2^16 base blocks (2^32 samples) are refused before
# any block range is built.
MAX_SAMPLES = 2**16 * BASE_BLOCK
# Monte Carlo rows drawn and evaluated at a time within a base block, so a
# worker holds one chunk of samples rather than a block's. Every step is
# elementwise or row-wise and successive draws continue one Philox stream,
# so no result depends on this value.
CHUNK_ROWS = 4096


@dataclass(frozen=True)
class IntegralEstimate:
    """Estimate of the continuum integral with an error band."""

    d: int
    value: float
    err: float
    method: str  # riemann_refined | monte_carlo
    params: dict[str, Any]


def _sin_squares_by_sin(theta: np.ndarray, out: np.ndarray) -> None:
    """Row sums of sin^2(theta) into out, through numpy's sin; theta is overwritten."""
    np.sin(theta, out=theta)
    np.einsum("ij,ij->i", theta, theta, out=out)


def _sin_squares_by_tan(theta: np.ndarray, out: np.ndarray) -> None:
    """Row sums of sin^2(theta) = t^2 / (1 + t^2), t = tan(theta), into out; theta is overwritten.

    At theta = +-pi/2 in float64, t is about 1.6e16, 1 + t^2 rounds to t^2
    and the quotient is exactly 1. 1 + t^2 goes into a temporary of
    theta's size. In the continuum_limit benchmark a per-thread scratch
    array reused across chunks read 0.5-0.7 MiB more peak RSS, and an
    in-place 1 / (1 + 1/t^2), with no second array, read the same.
    """
    np.tan(theta, out=theta)
    np.square(theta, out=theta)
    np.divide(theta, np.add(theta, 1.0), out=theta)
    np.einsum("ij->i", theta, out=out)


def _select_sin_squares() -> Callable[[np.ndarray, np.ndarray], None]:
    """The sin^2 row kernel for this process: through tan where numpy's float64 tan is SIMD code.

    numpy runs float64 sin as scalar libm code, about 11 ns per value on
    an AVX-512 machine, and float64 tan as an AVX-512 loop where the CPU
    has one, 1.6 ns per value. Its baseline tan takes about 16 ns, slower
    than sin, so the tan kernel is chosen only where
    ``numpy.lib.introspect.opt_func_info`` reports a float64 tan loop other
    than the baseline one. numpy < 2.0 has no such report and gets the sin
    kernel, as does a numpy whose report raises ImportError.
    """
    try:
        from numpy.lib.introspect import opt_func_info

        loops = opt_func_info(func_name="^tan$", signature="float64").get("tan", {})
    except ImportError:
        return _sin_squares_by_sin
    if any(not loop["current"].startswith("baseline") for loop in loops.values()):
        return _sin_squares_by_tan
    return _sin_squares_by_sin


_sin_squares = _select_sin_squares()


def _denominators(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row-wise 4 sum_i sin^2(pi x_i), the integrand's denominator, into out.

    x is overwritten. Coordinates are reduced to y in [-1/2, 1/2], their
    signed offset from the nearest integer, before the row kernel
    ``_sin_squares`` evaluates sin^2(pi y), so the denominator keeps full
    relative accuracy close to the singular lattice images of the origin.
    A zero denominator raises SingularPoint.
    """
    x -= np.round(x)
    x *= np.pi
    _sin_squares(x, out)
    out *= 4.0
    if np.any(out == 0.0):
        raise SingularPoint("integrand evaluated at a lattice image of the origin")
    return out


def integrand_f(x: Sequence[float]) -> float:
    """Integrand 1 / (2d - 2 sum cos(2 pi x_i)) at one point.

    Points with every coordinate integral raise SingularPoint.
    """
    point = np.array(x, dtype=np.float64)[None, :]
    return float(1.0 / _denominators(point, np.empty(1))[0])


def estimate_integral(
    d: int,
    method: str = "monte_carlo",
    budget: int = 10**6,
    seed: int = 42,
    threads: int = 1,
) -> IntegralEstimate:
    """Estimate the continuum integral in dimension d within a budget.

    monte_carlo: uniform samples on the unit cube, split into fixed
    blocks seeded independently of the worker count; err is three standard
    errors. Each worker draws and evaluates its block CHUNK_ROWS samples at
    a time, so it holds one chunk of samples, not one block. The sin^2
    sums go through tan where numpy's float64 tan is SIMD code and through
    sin elsewhere (``_select_sin_squares``); the two kernels agree within
    10 eps relative per coordinate, so machines may differ in the last bits
    of an estimate, while one machine gives the same bits for every thread
    count. At d = 3 the integrand's variance is infinite, so this "3 sigma"
    band under-covers: at 10^4 samples it misses the integral on 33 of
    seeds 0-299, against a nominal 0.27%. riemann_refined: midpoint rule
    on the largest grid fitting the budget, with the half-resolution grid
    supplying a deterministic err. A monte_carlo budget above MAX_SAMPLES (2^32)
    raises SizeExceeded before any sample is drawn or any block range is
    built; riemann_refined's grid is capped by spectrum.check_lattice.

    threads must be an integer >= 1 (InvalidFamily otherwise) for either
    method. Only monte_carlo uses it, as the worker count of
    summation.map_blocks; the midpoint sums run serially.
    """
    d, budget, seed = check_estimate(d, method, budget, seed)
    threads = require_positive_int(threads, "threads")
    if method == "monte_carlo":
        return _monte_carlo(d, budget, seed, threads)
    return _riemann_refined(d, budget)


def check_estimate(d: int, method: str, budget: int, seed: int) -> tuple[int, int, int]:
    """Raise what estimate_integral would for these arguments, computing nothing.

    Returns d, budget and seed as ints; riemann_refined checks its fine grid with check_lattice,
    and monte_carlo its budget against MAX_SAMPLES.
    """
    d = require_int(d, "dimension")
    budget = require_int(budget, "budget")
    seed = require_int(seed, "seed")
    if seed < 0:
        raise InvalidFamily(f"seed must be non-negative, got {seed}")
    if d <= 2:
        raise DivergentIntegral(f"the integral diverges for d <= 2 (got d={d})")
    if budget < MIN_BUDGET:
        raise InsufficientBudget(f"budget {budget} below the minimum {MIN_BUDGET}")
    if method == "riemann_refined":
        grid = _largest_grid(d, budget)
        if grid < 4:
            raise InsufficientBudget(
                f"budget {budget} allows only a {grid}^{d} midpoint grid; need >= 4 points per side"
            )
        check_lattice([(grid, d)], "midpoint")
    elif method == "monte_carlo":
        if budget > MAX_SAMPLES:
            raise SizeExceeded(f"{budget} Monte Carlo samples exceed the cap {MAX_SAMPLES}")
    else:
        raise ValueError(f"unknown method {method!r}")
    return d, budget, seed


def _monte_carlo(d: int, budget: int, seed: int, threads: int) -> IntegralEstimate:
    def block_stats(lo: int, hi: int) -> tuple[CompensatedSum, CompensatedSum]:
        block_index = lo // BASE_BLOCK
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(block_index,)))
        )
        n = hi - lo
        f = np.empty(n)
        chunk = np.empty((min(CHUNK_ROWS, n), d))
        for a in range(0, n, CHUNK_ROWS):
            b = min(a + CHUNK_ROWS, n)
            x = chunk[: b - a]
            rng.random(out=x)
            _denominators(x, f[a:b])
        np.divide(1.0, f, out=f)
        return block_sum(f), block_sum(f * f)

    partials = map_blocks(block_ranges(budget), block_stats, threads)
    acc, acc_sq = map(fold, zip(*partials))
    mean = acc.value / budget
    variance = max(0.0, (acc_sq.value - budget * mean * mean) / (budget - 1))
    err = 3.0 * math.sqrt(variance / budget)
    return IntegralEstimate(
        d, mean, max(err, 4.0 * EPS * abs(mean)), "monte_carlo",
        {"samples": budget, "seed": seed},
    )


def _riemann_refined(d: int, budget: int) -> IntegralEstimate:
    grid = _largest_grid(d, budget)  # >= 4, as check_estimate requires
    coarse = grid // 2
    fine_value = closed_axis_sum([(grid, d)], "midpoint")[0]
    coarse_value = closed_axis_sum([(coarse, d)], "midpoint")[0]
    err = max(abs(fine_value - coarse_value), 4.0 * EPS * abs(fine_value))
    return IntegralEstimate(
        d, fine_value, err, "riemann_refined", {"grid": grid, "coarse_grid": coarse}
    )


def _largest_grid(d: int, budget: int) -> int:
    """The largest grid with grid^d <= budget, an exact integer d-th root by bisection."""
    lo, hi = 1, 1 << (budget.bit_length() // d + 1)  # lo^d <= budget < hi^d
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**d <= budget else (lo, mid)
    return lo


def interior_sum(m: int, dims: int, threads: int = 1) -> float:
    """Normalized spectral sum over index vectors with every component positive.

    Returns (1/M^dims) * sum 1/lambda_h over h in [1, M-1]^dims. Each cell
    of this sum sits under the integrand's graph, so the value is a lower
    Riemann sum of the continuum integral in the same dimension. threads
    must be an integer >= 1 (InvalidFamily otherwise); the sum runs
    serially and does not use it.
    """
    m = require_int(m, "side length")
    dims = require_int(dims, "dimension")
    if m < 3:
        raise ValueError(f"side length must be >= 3, got {m}")
    if dims < 1:
        raise ValueError(f"dimension must be >= 1, got {dims}")
    require_positive_int(threads, "threads")
    return closed_axis_sum([(m, dims)], "interior")[0]
