"""Cross-validation suites: every invariant the package promises, runnable.

This module is the one definition of the acceptance criteria c1-c10:
every parameter set, tolerance and bound they use lives here, and so does
which records make up each CLI suite. Each check returns a record;
``criteria`` groups them by criterion, the CLI prints one PASS/FAIL line
per record, and the acceptance test asserts on the same records.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .bounds import (
    BoundReport,
    bounds_hypercube,
    bounds_integral,
    bounds_torus2,
    bounds_torusd,
    scenario_bounds,
    torus2_lower_branches,
)
from .errors import InsufficientData
from .families import Explicit, GraphFamily, Hypercube, Torus
from .quadrature import IntegralEstimate, check_estimate, estimate_integral, interior_sum
from .resistance import (
    hypercube_ad_direct,
    hypercube_ad_recursive,
    rave,
    rave_definition_oracle,
    rave_dense_spectral,
    rave_hypercube_binomial,
    rave_hypercube_recursive,
    rave_ring_exact,
    rave_torus,
)
from .spectrum import spectral_rave, torus_spectrum

ORACLE_REL_TOL = 1e-8
RING_REL_TOL = 1e-10
CLOSED_AXIS_REL_TOL = 1e-13
HYPERCUBE_REL_TOL = 1e-12
LOG_SLOPE_REL_TOL = 0.15
CONJECTURE_BAND = (0.7, 1.5)  # 2 d R for d in 5..7
HYPERCUBE_TREND_BAND = (1.0, 1.2)  # d R for d in 10..40
LINEAR_GROWTH_BAND = (0.9, 1.1)

TORUS2_LATTICE = (4, 5, 8, 16, 32, 64, 128)
TORUS2_PAIRS = tuple((m1, m2) for i, m1 in enumerate(TORUS2_LATTICE) for m2 in TORUS2_LATTICE[i:])
CLOSED_AXIS_CASES = TORUS2_PAIRS + ((3, 4, 5), (8,) * 3, (6,) * 4, (4,) * 6, (5, 6, 6, 8), (3, 3, 7, 7, 9))
SLOPE_SIDES = (64, 128, 256, 512)
TORUSD_CASES = tuple((m, d) for m in (4, 5, 8) for d in (3, 4, 5)) + ((4, 6),)
CONJECTURE_CASES = tuple((m, d) for d in (5, 6, 7) for m in (3, 4))
INTEGRAL_DIMS = (3, 4, 5, 8)
SUITES = ("oracle", "bounds", "recursion", "integral", "all")

Estimates = dict[tuple[int, str], IntegralEstimate]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    limit: float
    # The computed values the check read; compared by ``==``, never printed.
    values: tuple[float, ...] = field(default=(), repr=False)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} observed={self.observed:.6g} limit={self.limit:.6g}"


def least_squares_slope(xs: list[float], ys: list[float]) -> float:
    """Slope of the ordinary least-squares line through (xs, ys)."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0.0:
        raise InsufficientData("a least-squares slope needs at least two distinct x values")
    return cov / var


def random_connected_graph(rng: np.random.Generator, max_nodes: int = 50) -> Explicit:
    """Seeded random connected graph: a random tree plus extra edges."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for _ in range(int(rng.integers(0, n))):
        u = int(rng.integers(0, n - 1))
        v = int(rng.integers(u + 1, n))
        edges.add((u, v))
    return Explicit(n, edges)


def small_family_set(seed: int = 42) -> list[GraphFamily]:
    """The desk-scale cross-validation set: tori, hypercubes, random graphs."""
    families: list[GraphFamily] = []
    for m1 in range(3, 15):
        for m2 in range(m1, 15):
            if m1 * m2 <= 200:
                families.append(Torus((m1, m2)))
    families.extend(Hypercube(d) for d in range(1, 8))
    rng = np.random.Generator(np.random.PCG64(seed))
    families.extend(random_connected_graph(rng) for _ in range(50))
    return families


def _agree(name: str, value: float, reference: float, tol: float) -> CheckResult:
    rel = abs(value - reference) / reference if reference else abs(value)
    return CheckResult(name, rel <= tol, rel, tol, (value, reference))


def _sandwich(name: str, report: BoundReport, value: float) -> CheckResult:
    report = report.with_computed(value)
    return CheckResult(name, bool(report.sandwich_ok), value, report.upper, (value,))


def _within(name: str, value: float, band: tuple[float, float], computed: float) -> CheckResult:
    return CheckResult(name, band[0] <= value <= band[1], value, band[1], (computed,))


def _enumerated_torus(dims: tuple[int, ...]) -> float:
    """Torus average resistance summed over all N eigenvalues, no closed-form axis."""
    return spectral_rave(torus_spectrum(dims)).value


def ring_suite() -> list[CheckResult]:
    """c1, rings: the enumerated one-dimensional torus spectrum vs the exact ring formula.

    ``rave_torus([m])`` sums its one axis in closed form, which is the ring
    formula itself, so the spectral side here is the enumerated sum.
    """
    return [
        _agree(f"ring:M={m}", _enumerated_torus((m,)), rave_ring_exact(m).value, RING_REL_TOL)
        for m in (3, 10, 100, 1000, 10000)
    ]


def closed_axis_checks() -> list[CheckResult]:
    """c1, tori: ``rave_torus`` (longest side in closed form) vs the enumerated spectrum."""
    return [
        _agree(f"closed-axis:{'x'.join(map(str, dims))}", rave_torus(dims).value,
               _enumerated_torus(dims), CLOSED_AXIS_REL_TOL)
        for dims in CLOSED_AXIS_CASES
    ]


def oracle_suite(seed: int = 42) -> list[CheckResult]:
    """c2: spectral value vs the all-pairs electrical oracle on the small set.

    The spectral side shares no solver with the oracle: tori and hypercubes
    sum their closed-form spectra through ``rave`` (a torus with its longest
    side in closed form), and explicit graphs go through the dense
    eigensolver (Householder tridiagonalisation and Sturm bisection),
    because ``rave`` would reach them through the same Cholesky
    factorization as the oracle.
    """
    results = []
    for family in small_family_set(seed):
        if isinstance(family, Explicit):
            spectral = rave_dense_spectral(family).value
        else:
            spectral = rave(family).value
        oracle = rave_definition_oracle(family).value
        results.append(_agree(f"oracle:{_family_tag(family)}", spectral, oracle, ORACLE_REL_TOL))
    return results


def torus2_checks() -> list[CheckResult]:
    """c3: two-dimensional tori inside their sandwich, and which lower branch dominates.

    The aspect-ratio branch wins for strongly unequal sides; the logarithmic
    branch wins for large equal sides (the crossover sits near M = 51).
    """
    results = [
        _sandwich(f"sandwich:torus2:{m1}x{m2}", bounds_torus2(m1, m2),
                  rave_torus([m1, m2]).value)
        for m1, m2 in TORUS2_PAIRS
    ]
    for m1, m2 in ((4, 80), (4, 128), (5, 100), (8, 160)):
        first, second = torus2_lower_branches(m1, m2)
        results.append(CheckResult(f"branch:ratio-dominant:{m1}x{m2}", first >= second, first, second))
    for m in (64, 128):
        first, second = torus2_lower_branches(m, m)
        results.append(CheckResult(f"branch:log-dominant:{m}x{m}", second >= first, second, first))
    return results


def log_slope_checks() -> list[CheckResult]:
    """c4: the growth rate of R against log M on M x M tori is 1/(2 pi)."""
    ys = [rave_torus([m, m]).value for m in SLOPE_SIDES]
    slope = least_squares_slope([math.log(m) for m in SLOPE_SIDES], ys)
    target = 1.0 / (2.0 * math.pi)
    rel = abs(slope - target) / target
    name = f"log-slope:torus2:M={SLOPE_SIDES[0]}..{SLOPE_SIDES[-1]}"
    return [CheckResult(name, rel <= LOG_SLOPE_REL_TOL, slope, target * (1.0 + LOG_SLOPE_REL_TOL), tuple(ys))]


def torusd_checks() -> list[CheckResult]:
    """c5: equal-sided d-tori (d >= 3) inside their sandwich."""
    return [
        _sandwich(f"sandwich:torusd:M={m},d={d}", bounds_torusd(m, d),
                  rave_torus([m] * d).value)
        for m, d in TORUSD_CASES
    ]


def conjecture_checks() -> list[CheckResult]:
    """c6: 2 d R stays near 1 on small tori in dimensions 5..7."""
    values = [rave_torus([m] * d).value for m, d in CONJECTURE_CASES]
    return [
        _within(f"conjecture-scale:M={m},d={d}", 2.0 * d * value, CONJECTURE_BAND, value)
        for (m, d), value in zip(CONJECTURE_CASES, values)
    ]


def hypercube_exact(d: int) -> Fraction:
    """Hypercube average resistance 2^-d sum_{m=1..d} C(d, m) / (2m) as an exact rational."""
    return Fraction(sum(Fraction(math.comb(d, m), 2 * m) for m in range(1, d + 1)), 2**d)


def hypercube_sandwich_checks() -> list[CheckResult]:
    """c7, bounds part: hypercubes inside 1/(2(d+1)) .. 2/(d+1), with no slack."""
    results = []
    for d in range(2, 31):
        report = bounds_hypercube(d)
        value = rave_hypercube_binomial(d).value
        results.append(_within(f"sandwich:hypercube:d={d}", value, (report.lower, report.upper), value))
    return results


def hypercube_checks() -> list[CheckResult]:
    """c7, the rest: both closed forms against the exact rational; d R falls towards 1.

    ``hypercube-threeway`` compares the binomial sum and the recursion, each
    in floating point, with 2^-d sum_m C(d, m) / (2m) in exact rational
    arithmetic, and reports the larger relative gap, itself computed exactly.
    """
    results = []
    for d in range(1, 31):
        binom = rave_hypercube_binomial(d).value
        rec = rave_hypercube_recursive(d).value
        exact = hypercube_exact(d)
        rel = float(max(abs(Fraction(binom) - exact), abs(Fraction(rec) - exact)) / exact)
        results.append(CheckResult(f"hypercube-threeway:d={d}", rel <= HYPERCUBE_REL_TOL, rel,
                                   HYPERCUBE_REL_TOL, (binom, rec, float(exact))))
    results += [
        _agree(f"growth-coefficient:d={d}", hypercube_ad_recursive(d), hypercube_ad_direct(d),
               HYPERCUBE_REL_TOL)
        for d in range(0, 41)
    ]
    d_rave = [d * rave_hypercube_binomial(d).value for d in range(10, 41)]
    results += [
        _within(f"hypercube-trend:d={d}", v, HYPERCUBE_TREND_BAND, v) for d, v in zip(range(10, 41), d_rave)
    ]
    monotone = all(d_rave[i] >= d_rave[i + 1] for i in range(len(d_rave) - 1))
    results.append(CheckResult("hypercube-trend:nonincreasing", monotone, d_rave[-1], d_rave[0]))
    return results


def scenario_checks() -> list[CheckResult]:
    """c10: side-growth scenario sandwiches and scenario 1's linear growth."""
    # (scenario, c, N, sides): scenario 1 fixes one side at c = 4, scenario 3 keeps the torus square.
    cases = [(1, 4, n, [4, n // 4]) for n in (64, 256, 1024)]
    cases += [(3, 1, n, [math.isqrt(n)] * 2) for n in (256, 1024, 4096)]
    results = [
        _sandwich(f"sandwich:scenario{sc}:N={n}", scenario_bounds(sc, c, n),
                  rave_torus(sides).value)
        for sc, c, n, sides in cases
    ]
    # On the 4 x 1024 torus R should sit near its scenario-1 centre N / (12 c^2).
    value = rave_torus([4, 1024]).value
    ratio = value * 12.0 * 16.0 / 4096.0
    results.append(_within("scenario1-linear-growth:4x1024", ratio, LINEAR_GROWTH_BAND, value))
    return results


def integral_band_checks(estimates: Estimates) -> list[CheckResult]:
    """c8: each estimate's whole error band lies inside the integral's bounds."""
    results = []
    for (d, method), est in estimates.items():
        report = bounds_integral(d)
        inside = report.lower <= est.value - est.err and est.value + est.err <= report.upper
        results.append(CheckResult(f"integral-band:d={d}:{method}", inside, est.value, report.upper,
                                   (est.value, est.err)))
    return results


def riemann_checks(estimates: Estimates) -> list[CheckResult]:
    """c9: interior sums stay below the midpoint estimate; d = 3 tori converge to it."""
    results = []
    for m in (4, 8, 16):
        for dims in (3, 4):
            inner = interior_sum(m, dims)
            grid = estimates[(dims, "riemann_refined")]
            ref = grid.value + grid.err
            name = f"riemann-domination:M={m},m={dims}"
            results.append(CheckResult(name, inner <= ref, inner, ref, (inner,)))
    ref3 = estimates[(3, "riemann_refined")].value
    tori = [rave_torus([m] * 3).value for m in (8, 16, 32)]
    gaps = [abs(value - ref3) for value in tori]
    monotone = all(gaps[i] >= gaps[i + 1] for i in range(len(gaps) - 1))
    results.append(CheckResult("convergence:d=3", monotone, gaps[-1], gaps[0], tuple(tori)))
    return results


def criteria(
    seed: int, threads: int, mc_budget: int, grid_budget: int, suite: str = "all"
) -> Iterator[tuple[str, list[CheckResult]]]:
    """Acceptance criteria c1..c10 as (key, records), each computed when the caller asks for it.

    ``suite`` keeps only the records of that suite, in criteria order, and
    computes nothing else. c1 belongs to "all" alone; c7's sandwich records
    belong to "bounds" and its other records to "recursion". An unknown
    suite, and an estimator argument that c8 and c9 would refuse, raise
    here, before any criterion runs. ``threads`` reaches only the Monte
    Carlo estimates of c8 and c9; every other record is a serial sum.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {', '.join(SUITES)}")
    # Both continuum estimators in every checked dimension, keyed by (d, method); c8 and c9 share them.
    budgets = {"riemann_refined": grid_budget, "monte_carlo": mc_budget}
    cases = [(d, method, budget) for d in INTEGRAL_DIMS for method, budget in budgets.items()]
    estimates = functools.cache(lambda: {
        (d, method): estimate_integral(d, method=method, budget=budget, seed=seed, threads=threads)
        for d, method, budget in cases
    })
    parts = (
        ("c1", "all", lambda: ring_suite() + closed_axis_checks()),
        ("c2", "oracle", lambda: oracle_suite(seed)),
        ("c3", "bounds", torus2_checks),
        ("c4", "bounds", log_slope_checks),
        ("c5", "bounds", torusd_checks),
        ("c6", "bounds", conjecture_checks),
        ("c7", "bounds", hypercube_sandwich_checks),
        ("c7", "recursion", hypercube_checks),
        ("c8", "integral", lambda: integral_band_checks(estimates())),
        ("c9", "integral", lambda: riemann_checks(estimates())),
        ("c10", "bounds", scenario_checks),
    )
    chosen = [part for part in parts if suite in ("all", part[1])]
    if any(key in ("c8", "c9") for key, _, _ in chosen):
        for d, method, budget in cases:
            check_estimate(d, method, budget, seed)
    return (
        (key, [check for _, _, checks in group for check in checks()])
        for key, group in itertools.groupby(chosen, key=lambda part: part[0])
    )


def _family_tag(family: GraphFamily) -> str:
    if isinstance(family, Torus):
        return "torus" + "x".join(str(m) for m in family.dims)
    if isinstance(family, Hypercube):
        return f"hypercube{family.d}"
    return f"explicit{family.n}n{len(family.edges)}e"
