"""Cross-validation suites: every invariant the package promises, runnable.

Each suite returns a list of check records; the CLI prints one PASS/FAIL
line per record and the test suite asserts on the same records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import bounds_hypercube, bounds_torus2, bounds_torusd, torus2_lower_branches
from .families import Explicit, GraphFamily, Hypercube, Torus
from .quadrature import estimate_integral, interior_sum
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
from .spectrum import hypercube_spectrum, spectral_rave

ORACLE_REL_TOL = 1e-8
RING_REL_TOL = 1e-10
HYPERCUBE_REL_TOL = 1e-12

TORUS2_LATTICE = (4, 5, 8, 16, 32, 64, 128)
TORUSD_CASES = tuple((m, d) for m in (4, 5, 8) for d in (3, 4, 5)) + ((4, 6),)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    limit: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} observed={self.observed:.6g} limit={self.limit:.6g}"


def random_connected_graph(rng: np.random.Generator, max_nodes: int = 50) -> Explicit:
    """Seeded random connected graph: a random tree plus extra edges."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for _ in range(int(rng.integers(0, n))):
        u = int(rng.integers(0, n - 1))
        v = int(rng.integers(u + 1, n))
        edges.add((u, v))
    return Explicit(n, edges)


def small_family_set(seed: int = 42, graphs: int = 50) -> list[GraphFamily]:
    """The desk-scale cross-validation set: tori, hypercubes, random graphs."""
    families: list[GraphFamily] = []
    for m1 in range(3, 15):
        for m2 in range(m1, 15):
            if m1 * m2 <= 200:
                families.append(Torus((m1, m2)))
    families.extend(Hypercube(d) for d in range(1, 8))
    rng = np.random.Generator(np.random.PCG64(seed))
    families.extend(random_connected_graph(rng) for _ in range(graphs))
    return families


def spectral_value(family: GraphFamily, threads: int = 1) -> float:
    """The spectral side of the oracle check, sharing no solver with the oracle.

    Tori and hypercubes sum their closed-form spectra through ``rave``;
    explicit graphs go through the Jacobi eigensolver, because ``rave``
    would reach them through the same Cholesky factorization as the oracle.
    """
    if isinstance(family, Explicit):
        return rave_dense_spectral(family).value
    return rave(family, threads=threads).value


def oracle_suite(seed: int = 42, threads: int = 1) -> list[CheckResult]:
    """Spectral value vs the all-pairs electrical oracle on the small set."""
    results = []
    for family in small_family_set(seed):
        spectral = spectral_value(family, threads=threads)
        oracle = rave_definition_oracle(family).value
        rel = abs(spectral - oracle) / oracle if oracle else abs(spectral)
        name = f"oracle:{_family_tag(family)}"
        results.append(CheckResult(name, rel <= ORACLE_REL_TOL, rel, ORACLE_REL_TOL))
    return results


def ring_suite(threads: int = 1) -> list[CheckResult]:
    """Spectral one-dimensional torus vs the exact ring formula."""
    results = []
    for m in (3, 10, 100, 1000, 10000):
        spectral = rave_torus([m], threads=threads).value
        exact = rave_ring_exact(m).value
        rel = abs(spectral - exact) / exact
        results.append(CheckResult(f"ring:M={m}", rel <= RING_REL_TOL, rel, RING_REL_TOL))
    return results


def bounds_suite(threads: int = 1) -> list[CheckResult]:
    """Sandwich checks for every bound family plus branch-dominance structure."""
    results = []
    for i, m1 in enumerate(TORUS2_LATTICE):
        for m2 in TORUS2_LATTICE[i:]:
            if m1 * m2 > 10**6:
                continue
            report = bounds_torus2(m1, m2).with_computed(rave_torus([m1, m2], threads=threads).value)
            results.append(
                CheckResult(f"sandwich:torus2:{m1}x{m2}", bool(report.sandwich_ok),
                            report.computed, report.upper)
            )
    for m, d in TORUSD_CASES:
        report = bounds_torusd(m, d).with_computed(rave_torus([m] * d, threads=threads).value)
        results.append(
            CheckResult(f"sandwich:torusd:M={m},d={d}", bool(report.sandwich_ok),
                        report.computed, report.upper)
        )
    for d in range(2, 31):
        report = bounds_hypercube(d).with_computed(rave_hypercube_binomial(d).value)
        results.append(
            CheckResult(f"sandwich:hypercube:d={d}", bool(report.sandwich_ok),
                        report.computed, report.upper)
        )
    # Lower-bound branch structure: the aspect-ratio branch wins for
    # strongly unequal sides; the logarithmic branch wins for large equal
    # sides (the crossover for equal sides sits near M = 51).
    for m1, m2 in ((4, 80), (4, 128), (5, 100), (8, 160)):
        first, second = torus2_lower_branches(m1, m2)
        results.append(CheckResult(f"branch:ratio-dominant:{m1}x{m2}", first >= second, first, second))
    for m in (64, 128):
        first, second = torus2_lower_branches(m, m)
        results.append(CheckResult(f"branch:log-dominant:{m}x{m}", second >= first, second, first))
    return results


def recursion_suite() -> list[CheckResult]:
    """Hypercube closed forms against each other and the spectral sum."""
    results = []
    for d in range(1, 31):
        binom = rave_hypercube_binomial(d).value
        rec = rave_hypercube_recursive(d).value
        spect = spectral_rave(hypercube_spectrum(d)).value
        rel = max(abs(binom - rec), abs(binom - spect)) / binom
        results.append(
            CheckResult(f"hypercube-threeway:d={d}", rel <= HYPERCUBE_REL_TOL, rel, HYPERCUBE_REL_TOL)
        )
    for d in range(0, 41):
        direct = hypercube_ad_direct(d)
        rec = hypercube_ad_recursive(d)
        rel = abs(direct - rec) / direct if direct else abs(rec)
        results.append(
            CheckResult(f"growth-coefficient:d={d}", rel <= HYPERCUBE_REL_TOL, rel, HYPERCUBE_REL_TOL)
        )
    return results


def integral_suite(seed: int = 42, threads: int = 1, budget: int = 10**6) -> list[CheckResult]:
    """Continuum-integral sandwich, Riemann domination, and convergence."""
    results = []
    estimates: dict[tuple[int, str], float] = {}
    errs: dict[tuple[int, str], float] = {}
    for d in (3, 4, 5, 8):
        for method in ("riemann_refined", "monte_carlo"):
            est = estimate_integral(d, method=method, budget=budget, seed=seed, threads=threads)
            estimates[(d, method)] = est.value
            errs[(d, method)] = est.err
            lo, hi = 1.0 / (4.0 * d), 4.0 / d
            inside = lo <= est.value - est.err and est.value + est.err <= hi
            results.append(CheckResult(f"integral-band:d={d}:{method}", inside, est.value, hi))
    for m in (4, 8, 16):
        for dims in (3, 4):
            inner = interior_sum(m, dims, threads=threads)
            ref = estimates[(dims, "riemann_refined")] + errs[(dims, "riemann_refined")]
            results.append(CheckResult(f"riemann-domination:M={m},m={dims}", inner <= ref, inner, ref))
    ref3 = estimates[(3, "riemann_refined")]
    gaps = [abs(rave_torus([m] * 3, threads=threads).value - ref3) for m in (8, 16, 32)]
    monotone = all(gaps[i] >= gaps[i + 1] for i in range(len(gaps) - 1))
    results.append(CheckResult("convergence:d=3", monotone, gaps[-1], gaps[0]))
    return results


def all_suites(seed: int = 42, threads: int = 1, budget: int = 10**6) -> list[CheckResult]:
    results = ring_suite(threads)
    results += oracle_suite(seed, threads)
    results += bounds_suite(threads)
    results += recursion_suite()
    results += integral_suite(seed, threads, budget)
    return results


def _family_tag(family: GraphFamily) -> str:
    if isinstance(family, Torus):
        return "torus" + "x".join(str(m) for m in family.dims)
    if isinstance(family, Hypercube):
        return f"hypercube{family.d}"
    if isinstance(family, Explicit):
        return f"explicit{family.n}n{len(family.edges)}e"
    return f"ring{family.m}"
