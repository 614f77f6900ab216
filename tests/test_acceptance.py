"""Acceptance gate: one test per criterion, each printing a PASS line.

All numeric inputs to the criteria are computed once into a digest (at a
single worker), asserted per criterion, then recomputed at 2 and 8 workers
and once more at 1 worker to check bit-identical reproducibility.
"""

import math
import time

import pytest

import gridres as gr
from gridres.verify import small_family_set, spectral_value

SEED = 42

RING_SET = (3, 10, 100, 1000, 10000)
T2_LATTICE = (4, 8, 16, 32, 64, 128)
T3_CASES = tuple((m, d) for m in (4, 5, 8) for d in (3, 4, 5)) + ((4, 6),)
SLOPE_SIDES = (64, 128, 256, 512)
CONJECTURE_CASES = tuple((m, d) for d in (5, 6, 7) for m in (3, 4))
HC_SANDWICH_RANGE = range(2, 31)
AD_RANGE = range(0, 41)
DR_RANGE = range(10, 41)
INTEGRAL_DIMS = (3, 4, 5, 8)
MC_BUDGET = 10**7
RIEMANN_BUDGET = 2 * 10**6
INTERIOR_CASES = tuple((m, dims) for m in (4, 8, 16) for dims in (3, 4))
SC1_SIZES = (64, 256, 1024)
SC3_SIZES = (256, 1024, 4096)

RUNTIME_CAPS = {
    "c1": 1.0, "c2": 60.0, "c3": 30.0, "c4": 60.0, "c5": 120.0,
    "c6": 60.0, "c7": 1.0, "c8": 120.0, "c9": 60.0, "c10": 60.0,
}


def compute_digest(threads: int, seed: int = SEED) -> dict:
    digest: dict = {"_elapsed": {}}

    def timed(key, fn):
        start = time.perf_counter()
        digest[key] = fn()
        digest["_elapsed"][key] = time.perf_counter() - start

    timed("c1", lambda: [gr.rave_torus([m], threads=threads).value for m in RING_SET])

    def c2():
        families = small_family_set(seed)
        # explicit graphs take the Jacobi route, independent of the Cholesky oracle
        spectral = [spectral_value(f, threads=threads) for f in families]
        oracle = [gr.rave_definition_oracle(f).value for f in families]
        return [spectral, oracle]

    timed("c2", c2)
    timed(
        "c3",
        lambda: [
            gr.rave_torus([m1, m2], threads=threads).value
            for i, m1 in enumerate(T2_LATTICE)
            for m2 in T2_LATTICE[i:]
        ],
    )
    timed("c4", lambda: [gr.rave_torus([m, m], threads=threads).value for m in SLOPE_SIDES])
    timed("c5", lambda: [gr.rave_torus([m] * d, threads=threads).value for m, d in T3_CASES])
    timed("c6", lambda: [gr.rave_torus([m] * d, threads=threads).value for m, d in CONJECTURE_CASES])

    def c7():
        return [
            [gr.rave_hypercube_binomial(d).value for d in HC_SANDWICH_RANGE],
            [gr.rave_hypercube_recursive(d).value for d in HC_SANDWICH_RANGE],
            [gr.spectral_rave(gr.hypercube_spectrum(d), threads=threads).value for d in HC_SANDWICH_RANGE],
            [gr.hypercube_ad_recursive(d) for d in AD_RANGE],
            [gr.hypercube_ad_direct(d) for d in AD_RANGE],
            [d * gr.rave_hypercube_binomial(d).value for d in DR_RANGE],
        ]

    timed("c7", c7)

    def c8():
        out = {}
        for d in INTEGRAL_DIMS:
            mc = gr.estimate_integral(d, "monte_carlo", budget=MC_BUDGET, seed=seed, threads=threads)
            grid = gr.estimate_integral(d, "riemann_refined", budget=RIEMANN_BUDGET, threads=threads)
            out[d] = [mc.value, mc.err, grid.value, grid.err]
        return out

    timed("c8", c8)
    timed("c9", lambda: [gr.interior_sum(m, dims, threads=threads) for m, dims in INTERIOR_CASES])

    def c10():
        sc1 = [gr.rave_torus([4, n // 4], threads=threads).value for n in SC1_SIZES]
        sc3 = [gr.rave_torus([math.isqrt(n)] * 2, threads=threads).value for n in SC3_SIZES]
        ratio_case = gr.rave_torus([4, 1024], threads=threads).value
        return [sc1, sc3, ratio_case]

    timed("c10", c10)
    return digest


@pytest.fixture(scope="module")
def digest():
    return compute_digest(threads=1)


def finish(digest, key, label):
    elapsed = digest["_elapsed"][key]
    cap = RUNTIME_CAPS[key]
    assert elapsed < cap, f"criterion {key} took {elapsed:.1f}s, cap {cap}s"
    print(f"PASS criterion {key[1:]}: {label} [{elapsed:.2f}s]")


def test_criterion_1_ring_exactness(digest):
    for m, spectral in zip(RING_SET, digest["c1"]):
        exact = gr.rave_ring_exact(m).value
        rel = abs(spectral - exact) / exact
        assert rel <= 1e-10, f"M={m}: relative error {rel:.3e}"
    finish(digest, "c1", "spectral ring values match the closed form to 1e-10")


def test_criterion_2_oracle_equivalence(digest):
    spectral, oracle = digest["c2"]
    families = small_family_set(SEED)
    assert len(spectral) == len(oracle) == len(families)
    for family, s, o in zip(families, spectral, oracle):
        rel = abs(s - o) / o
        assert rel <= 1e-8, f"{family}: spectral {s} vs oracle {o} (rel {rel:.3e})"
    finish(digest, "c2", f"spectral equals the all-pairs oracle on {len(families)} families")


def test_criterion_3_torus2_sandwich(digest):
    pairs = [(m1, m2) for i, m1 in enumerate(T2_LATTICE) for m2 in T2_LATTICE[i:]]
    for (m1, m2), value in zip(pairs, digest["c3"]):
        report = gr.bounds_torus2(m1, m2).with_computed(value)
        assert report.applicable and report.sandwich_ok, f"({m1},{m2}): {value} vs {report}"
    finish(digest, "c3", f"{len(pairs)} two-dimensional tori inside their bounds")


def test_criterion_4_log_slope(digest):
    xs = [math.log(m) for m in SLOPE_SIDES]
    ys = digest["c4"]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    target = 1.0 / (2.0 * math.pi)
    rel = abs(slope - target) / target
    assert rel <= 0.15, f"slope {slope} deviates {rel:.3%} from {target}"
    finish(digest, "c4", f"growth slope {slope:.6f} within 15% of 1/(2 pi)")


def test_criterion_5_torusd_sandwich(digest):
    for (m, d), value in zip(T3_CASES, digest["c5"]):
        report = gr.bounds_torusd(m, d).with_computed(value)
        assert report.applicable and report.sandwich_ok, f"(M={m},d={d}): {value} vs {report}"
    finish(digest, "c5", f"{len(T3_CASES)} equal-sided tori inside their bounds")


def test_criterion_6_conjecture_scale(digest):
    for (m, d), value in zip(CONJECTURE_CASES, digest["c6"]):
        scaled = 2.0 * d * value
        assert 0.7 <= scaled <= 1.5, f"(M={m},d={d}): 2dR = {scaled}"
    finish(digest, "c6", "2 d R stays in [0.7, 1.5] for d in 5..7, M in 3..4")


def test_criterion_7_hypercube(digest):
    binom, rec, spect, ad_rec, ad_dir, d_rave = digest["c7"]
    for d, b in zip(HC_SANDWICH_RANGE, binom):
        assert 0.5 / (d + 1) <= b <= 2.0 / (d + 1), f"d={d}: {b} outside the sandwich"
    for d, b, r, s in zip(HC_SANDWICH_RANGE, binom, rec, spect):
        assert abs(b - r) <= 1e-12 * b, f"d={d}: binomial vs recursion"
        assert abs(b - s) <= 1e-12 * b, f"d={d}: binomial vs spectral"
    for d, a_r, a_d in zip(AD_RANGE, ad_rec, ad_dir):
        assert abs(a_r - a_d) <= 1e-12 * max(a_d, 1.0), f"d={d}: coefficient mismatch"
    for d, v in zip(DR_RANGE, d_rave):
        assert 1.0 <= v <= 1.2, f"d={d}: d*R = {v}"
    assert all(d_rave[i] >= d_rave[i + 1] for i in range(len(d_rave) - 1)), "d*R not nonincreasing"
    finish(digest, "c7", "sandwich, three-way identity, coefficient identity, 1/d trend")


def test_criterion_8_integral_sandwich(digest):
    for d in INTEGRAL_DIMS:
        mc_value, mc_err, grid_value, grid_err = digest["c8"][d]
        lo, hi = 1.0 / (4.0 * d), 4.0 / d
        assert lo <= mc_value <= hi, f"d={d}: monte carlo {mc_value} outside [{lo}, {hi}]"
        assert lo <= grid_value <= hi, f"d={d}: midpoint {grid_value} outside [{lo}, {hi}]"
        assert lo <= mc_value - mc_err and mc_value + mc_err <= hi, (
            f"d={d}: 3-sigma band [{mc_value - mc_err}, {mc_value + mc_err}] not inside"
        )
    finish(digest, "c8", "both estimators inside the band, 3-sigma band included, d in 3,4,5,8")


def test_criterion_9_riemann_domination(digest):
    for (m, dims), inner in zip(INTERIOR_CASES, digest["c9"]):
        _, _, grid_value, grid_err = digest["c8"][dims]
        assert inner <= grid_value + grid_err, (
            f"interior_sum({m},{dims}) = {inner} exceeds {grid_value} + {grid_err}"
        )
    finish(digest, "c9", "interior sums stay below the integral estimate")


def test_criterion_10_scenarios(digest):
    sc1, sc3, ratio_case = digest["c10"]
    for n, value in zip(SC1_SIZES, sc1):
        report = gr.scenario_bounds(1, 4, n).with_computed(value)
        assert report.applicable and report.sandwich_ok, f"scenario 1, N={n}: {value} vs {report}"
    for n, value in zip(SC3_SIZES, sc3):
        report = gr.scenario_bounds(3, 1, n).with_computed(value)
        assert report.applicable and report.sandwich_ok, f"scenario 3, N={n}: {value} vs {report}"
    ratio = ratio_case * 12.0 * 16.0 / 4096.0
    assert 0.9 <= ratio <= 1.1, f"scenario 1 linear-growth ratio {ratio}"
    finish(digest, "c10", "scenario sandwiches hold; linear-growth ratio inside [0.9, 1.1]")


def test_criterion_11_determinism(digest):
    keys = [k for k in digest if not k.startswith("_")]
    for threads in (2, 8):
        other = compute_digest(threads=threads)
        for key in keys:
            assert other[key] == digest[key], f"criterion {key} differs at {threads} workers"
    rerun = compute_digest(threads=1)
    for key in keys:
        assert rerun[key] == digest[key], f"criterion {key} differs between same-seed runs"
    print("PASS criterion 11: bit-identical outputs across 1, 2, 8 workers and repeated runs")
