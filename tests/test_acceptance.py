"""Acceptance gate: one test per criterion, each printing a PASS line.

``gridres.verify.criteria`` defines the criteria; this file picks only the
seed, the estimator budgets and the worker counts. The records are computed
once into a digest at one worker, asserted per criterion, then recomputed at
2 and 8 workers and again at 1 worker to check bit-identical reproducibility.
"""

import time

import pytest

from gridres import verify

SEED = 42
MC_BUDGET = 10**7
GRID_BUDGET = 2 * 10**6

RUNTIME_CAPS = {
    "c1": 1.0, "c2": 60.0, "c3": 30.0, "c4": 60.0, "c5": 120.0,
    "c6": 60.0, "c7": 1.0, "c8": 120.0, "c9": 60.0, "c10": 60.0,
}


def compute_digest(threads: int, seed: int = SEED) -> dict:
    digest: dict = {"_elapsed": {}}
    start = time.perf_counter()
    for key, checks in verify.criteria(seed, threads, MC_BUDGET, GRID_BUDGET):
        digest[key] = checks
        now = time.perf_counter()
        digest["_elapsed"][key] = now - start
        start = now
    return digest


@pytest.fixture(scope="module")
def digest():
    return compute_digest(threads=1)


def finish(digest, key, label):
    failures = [check.line() for check in digest[key] if not check.passed]
    assert not failures, "\n".join(failures)
    elapsed = digest["_elapsed"][key]
    cap = RUNTIME_CAPS[key]
    assert elapsed < cap, f"criterion {key} took {elapsed:.1f}s, cap {cap}s"
    print(f"PASS criterion {key[1:]}: {label} [{elapsed:.2f}s]")


def test_criterion_1_ring_exactness(digest):
    label = (f"enumerated ring values match the closed form to {verify.RING_REL_TOL:g}, "
             f"closed-axis tori the enumerated sum to {verify.CLOSED_AXIS_REL_TOL:g}")
    finish(digest, "c1", label)


def test_criterion_2_oracle_equivalence(digest):
    finish(digest, "c2", f"spectral equals the all-pairs oracle on {len(digest['c2'])} families")


def test_criterion_3_torus2_sandwich(digest):
    tori = sum(check.name.startswith("sandwich:") for check in digest["c3"])
    finish(digest, "c3", f"{tori} two-dimensional tori inside their bounds")


def test_criterion_4_log_slope(digest):
    (slope,) = digest["c4"]
    label = f"growth slope {slope.observed:.6f} within {verify.LOG_SLOPE_REL_TOL:.0%} of 1/(2 pi)"
    finish(digest, "c4", label)


def test_criterion_5_torusd_sandwich(digest):
    finish(digest, "c5", f"{len(digest['c5'])} equal-sided tori inside their bounds")


def test_criterion_6_conjecture_scale(digest):
    low, high = verify.CONJECTURE_BAND
    finish(digest, "c6", f"2 d R stays in [{low}, {high}] for d in 5..7, M in 3..4")


def test_criterion_7_hypercube(digest):
    finish(digest, "c7", "sandwich, three-way identity, coefficient identity, 1/d trend")


def test_criterion_8_integral_sandwich(digest):
    dims = ",".join(str(d) for d in verify.INTEGRAL_DIMS)
    finish(digest, "c8", f"both estimators inside the band, 3-sigma band included, d in {dims}")


def test_criterion_9_riemann_domination(digest):
    finish(digest, "c9", "interior sums stay below the integral estimate")


def test_criterion_10_scenarios(digest):
    low, high = verify.LINEAR_GROWTH_BAND
    finish(digest, "c10", f"scenario sandwiches hold; linear-growth ratio inside [{low}, {high}]")


def test_criterion_11_determinism(digest):
    keys = [k for k in digest if not k.startswith("_")]
    for threads in (2, 8, 1):  # the last pass reruns the fixture's own setting
        other = compute_digest(threads=threads)
        for key in keys:
            assert other[key] == digest[key], f"criterion {key} differs on a rerun at {threads} workers"
    print("PASS criterion 11: bit-identical outputs across 1, 2, 8 workers and repeated runs")
