import itertools
import math
import sys
import tracemalloc
import types

import numpy as np
import pytest

from gridres import (
    DivergentIntegral,
    GridResError,
    InsufficientBudget,
    IntegralEstimate,
    InvalidFamily,
    Overflow,
    SingularPoint,
    SizeExceeded,
    estimate_integral,
    integrand_f,
    interior_sum,
    rave_torus,
)
import gridres.quadrature
from gridres.quadrature import CHUNK_ROWS, MAX_SAMPLES, check_estimate
from gridres.spectrum import closed_axis_sum
from gridres.summation import BASE_BLOCK, EPS, block_ranges, block_sum, fold
from test_spectrum import point_table

# midpoint extrapolation over grids 64/128/256 agrees with this to 5 digits
I3_REFERENCE = 0.2527310098


def test_integrand_examples():
    assert abs(integrand_f([0.25, 0.25]) - 0.25) <= 1e-15
    assert abs(integrand_f([0.5, 0.5]) - 0.125) <= 1e-16
    assert abs(integrand_f([0.5, 0.5, 0.5]) - 1.0 / 12.0) <= 1e-16


def test_integrand_leaves_its_argument_alone():
    # the denominator kernel works in place; integrand_f must hand it a copy
    point = np.array([0.75, 1.25, -0.5])
    assert abs(integrand_f(point) - 1.0 / 8.0) <= 1e-16
    assert point.tolist() == [0.75, 1.25, -0.5]


def test_integrand_singular_points():
    with pytest.raises(SingularPoint):
        integrand_f([0.0, 0.0])
    with pytest.raises(SingularPoint):
        integrand_f([1.0, 2.0, 0.0])


def test_low_dimension_rejected():
    with pytest.raises(DivergentIntegral):
        estimate_integral(2, budget=10**5)


def test_budget_floor():
    with pytest.raises(InsufficientBudget):
        estimate_integral(3, budget=5000)
    with pytest.raises(InsufficientBudget):
        # 10^4 points cannot give a 4-point-per-side grid in d = 8
        estimate_integral(8, method="riemann_refined", budget=10**4)


def test_riemann_converges_to_reference():
    est = estimate_integral(3, method="riemann_refined", budget=10**6)
    assert abs(est.value - I3_REFERENCE) <= 0.005
    assert est.err > 0.0
    assert est.value - est.err > 0.0
    assert est.params["grid"] == 100
    assert est.method == "riemann_refined"


def test_monte_carlo_brackets_reference():
    est = estimate_integral(3, method="monte_carlo", budget=10**6, seed=42)
    assert abs(est.value - I3_REFERENCE) <= max(est.err, 0.01)
    assert est.err > 0.0
    assert est.params == {"samples": 10**6, "seed": 42}


@pytest.mark.parametrize("d", [3, 4, 5, 8])
@pytest.mark.parametrize("method", ["riemann_refined", "monte_carlo"])
def test_lemma_band(d, method):
    est = estimate_integral(d, method=method, budget=3 * 10**5, seed=42)
    assert 1.0 / (4.0 * d) <= est.value <= 4.0 / d


def test_monte_carlo_determinism():
    a = estimate_integral(4, method="monte_carlo", budget=10**5, seed=7)
    b = estimate_integral(4, method="monte_carlo", budget=10**5, seed=7)
    c = estimate_integral(4, method="monte_carlo", budget=10**5, seed=7, threads=8)
    assert a.value == b.value == c.value
    assert a.err == b.err == c.err
    other = estimate_integral(4, method="monte_carlo", budget=10**5, seed=8)
    assert other.value != a.value


def test_riemann_thread_invariance():
    # d = 5 at 2e6 points: an 18^5 grid, which folds to 495 rows in one block
    for d, budget in ((3, 10**6), (5, 2 * 10**6)):
        values = [
            estimate_integral(d, method="riemann_refined", budget=budget, threads=t).value
            for t in (1, 2, 8)
        ]
        assert values[0] == values[1] == values[2]


def test_interior_sum_examples():
    assert abs(interior_sum(4, 1) - 0.3125) <= 1e-12
    assert abs(interior_sum(4, 1) - rave_torus([4]).value) <= 1e-12
    assert abs(interior_sum(3, 2) - 2.0 / 27.0) <= 1e-15


def enumerated_mean(tables):
    """Mean of 1 / sum_i tables[i][h_i] over every index vector h, in plain Python."""
    terms = [1.0 / math.fsum(entries) for entries in itertools.product(*tables)]
    return math.fsum(terms) / len(terms)


@pytest.mark.parametrize("m,d", [(3, 1), (7, 1), (4, 2), (9, 2), (5, 3), (8, 3), (4, 4), (6, 4)])
def test_interior_sum_matches_enumeration(m, d):
    interior = point_table(m, "interior")
    expected = enumerated_mean([interior] * d) * ((m - 1) / m) ** d
    assert abs(interior_sum(m, d) - expected) <= 1e-14 * expected


@pytest.mark.parametrize("d,grid", [(1, 5), (1, 8), (2, 7), (3, 6), (3, 11), (4, 5)])
def test_midpoint_mean_matches_enumeration(d, grid):
    expected = enumerated_mean([point_table(grid, "midpoint")] * d)
    assert abs(closed_axis_sum([(grid, d)], "midpoint")[0] - expected) <= 1e-14 * expected


def test_interior_sum_validation():
    with pytest.raises(ValueError):
        interior_sum(2, 3)
    with pytest.raises(ValueError):
        interior_sum(5, 0)
    # 1000^4 folds its other three sides to C(502, 3) = 20,833,500 interior
    # rows, above the 2^24 cap: refused before any row is built. 3^(10^6)
    # leaves the float range, refused with no million-long side list.
    tracemalloc.start()
    try:
        with pytest.raises(SizeExceeded):
            interior_sum(1000, 4)
        with pytest.raises(Overflow):
            interior_sum(3, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_interior_sum_below_integral():
    est3 = estimate_integral(3, method="riemann_refined", budget=10**6)
    est4 = estimate_integral(4, method="riemann_refined", budget=10**6)
    for m in (4, 8, 16):
        assert interior_sum(m, 3) <= est3.value + est3.err
        assert interior_sum(m, 4) <= est4.value + est4.err


def test_interior_sum_thread_invariance():
    # (18, 5) has 17^5 interior points, which fold to 495 rows in one block
    for m, dims in ((16, 3), (18, 5)):
        values = [interior_sum(m, dims, threads=t) for t in (1, 2, 8)]
        assert values[0] == values[1] == values[2]


def test_torus_average_approaches_integral():
    ref = estimate_integral(3, method="riemann_refined", budget=2 * 10**6).value
    gaps = [abs(rave_torus([m] * 3).value - ref) for m in (8, 16, 32)]
    assert gaps[0] >= gaps[1] >= gaps[2]


@pytest.mark.parametrize("m,d", [(4, 2), (4, 3), (5, 3), (3, 4), (4, 40), (20, 8)])
def test_interior_sums_decompose_full_average(m, d):
    # grouping index vectors by their set of nonzero components splits the
    # full spectral sum into binomially weighted interior sums
    total = sum(
        math.comb(d, k) * interior_sum(m, k) / float(m) ** (d - k) for k in range(1, d + 1)
    )
    assert abs(total - rave_torus([m] * d).value) <= 1e-12


def test_monte_carlo_sample_cap(monkeypatch):
    # 2^32 samples (2^16 base blocks) pass; one more is refused before any
    # block range is built.
    def forbidden(*args, **kwargs):
        raise AssertionError("block ranges built for a refused budget")

    assert MAX_SAMPLES == 2**32 == 2**16 * BASE_BLOCK
    assert check_estimate(3, "monte_carlo", 2**32, 0) == (3, 2**32, 0)
    monkeypatch.setattr(gridres.quadrature, "block_ranges", forbidden)
    with pytest.raises(SizeExceeded, match="Monte Carlo samples exceed the cap"):
        check_estimate(3, "monte_carlo", 2**32 + 1, 0)
    with pytest.raises(SizeExceeded):
        estimate_integral(3, budget=500_000_000_000)


def test_quadrature_sizes_must_be_integers():
    for call in (
        lambda: interior_sum(4.5, 3),
        lambda: interior_sum(4, 3.0),
        lambda: estimate_integral(3.5),
        lambda: estimate_integral(3, budget=1e5),
    ):
        with pytest.raises(InvalidFamily, match="integer"):
            call()
    assert interior_sum(np.int64(4), np.int64(3)) == interior_sum(4, 3)
    a = estimate_integral(np.int64(3), "riemann_refined", budget=np.int64(10**4))
    assert a == estimate_integral(3, "riemann_refined", budget=10**4)


def test_estimate_integral_seed_checked():
    for seed in (2.5, -1):
        with pytest.raises(GridResError, match="seed"):
            estimate_integral(3, budget=10**4, seed=seed)


def unstreamed_monte_carlo(d, budget, seed):
    """The Monte Carlo estimate with every base block evaluated as one array."""
    parts, parts_sq = [], []
    for lo, hi in block_ranges(budget):
        key = np.random.SeedSequence(entropy=seed, spawn_key=(lo // BASE_BLOCK,))
        x = np.random.Generator(np.random.Philox(key)).random((hi - lo, d))
        theta = np.pi * (x - np.round(x))
        sin_squares = np.empty(hi - lo)
        gridres.quadrature._sin_squares(theta, sin_squares)
        f = 1.0 / (4.0 * sin_squares)
        parts.append(block_sum(f))
        parts_sq.append(block_sum(f * f))
    acc, acc_sq = fold(parts), fold(parts_sq)
    mean = acc.value / budget
    variance = max(0.0, (acc_sq.value - budget * mean * mean) / (budget - 1))
    err = max(3.0 * math.sqrt(variance / budget), 4.0 * EPS * abs(mean))
    return IntegralEstimate(d, mean, err, "monte_carlo", {"samples": budget, "seed": seed})


@pytest.mark.parametrize("budget", [10**4, BASE_BLOCK + 4097])
@pytest.mark.parametrize("d", [3, 8])
def test_streamed_monte_carlo_is_bit_identical(d, budget):
    # neither budget is a multiple of the chunk or of the base block, so
    # partial chunks and a partial block are both evaluated
    assert budget % CHUNK_ROWS and budget % BASE_BLOCK
    expected = unstreamed_monte_carlo(d, budget, 42)
    for threads in (1, 2):
        assert estimate_integral(d, budget=budget, seed=42, threads=threads) == expected


@pytest.mark.parametrize("kernel", ["_sin_squares_by_sin", "_sin_squares_by_tan"])
def test_streamed_monte_carlo_is_bit_identical_with_either_kernel(monkeypatch, kernel):
    # whichever kernel this machine's numpy selects, the other one streams bit for bit too
    monkeypatch.setattr(gridres.quadrature, "_sin_squares", getattr(gridres.quadrature, kernel))
    expected = unstreamed_monte_carlo(5, BASE_BLOCK + 4097, 7)
    for threads in (1, 2):
        assert estimate_integral(5, budget=BASE_BLOCK + 4097, seed=7, threads=threads) == expected


def sin_square_angles():
    """pi y for 10^5 fixed-seed y = x - round(x), x uniform on [0, 1), and y = 0, 2^-53, 1/4, 1/2."""
    x = np.random.default_rng(20240).random(10**5)
    y = np.concatenate([x - np.round(x), [0.0, 2.0**-53, 0.25, 0.5]])
    return np.pi * y


@pytest.mark.parametrize("kernel", ["_sin_squares_by_sin", "_sin_squares_by_tan"])
def test_sin_square_kernels_against_a_wider_sine(kernel):
    # numpy documents its bundled SVML float64 routines, tan among them, as
    # within 4 ulp, so t = tan(theta) (1 + a) with |a| <= 4 eps. Squaring
    # rounds once (u = eps/2), and t^2 / (1 + t^2) has relative sensitivity
    # 1 / (1 + t^2) <= 1 to t^2; adding 1 and dividing round once each. To
    # first order the tan kernel is within 8 eps + 3u = 9.5 eps relative of
    # sin^2(theta); 10 eps covers the second-order terms. A sine within the
    # same 4 ulp gives 8 eps + u through the sin kernel. Measured on an
    # AVX-512 CPU with numpy 2.4: the tan kernel 3.6 ulp (2.1 eps
    # relative) at most, the sin kernel 1.9 ulp (1.4 eps).
    theta = sin_square_angles()
    eps = np.finfo(np.float64).eps
    bound = 10 * eps
    if np.finfo(np.longdouble).eps < eps:
        reference = np.sin(theta.astype(np.longdouble)) ** 2
    else:
        # no wider float here: libm's sine, taken as within 1 ulp, squared
        # in float64 is itself within 2.5 eps
        reference = np.array([math.sin(t) ** 2 for t in theta])
        bound += 2.5 * eps
    rows = theta[:, None].copy()
    out = np.empty(len(theta))
    getattr(gridres.quadrature, kernel)(rows, out)
    error = np.abs(out - reference)
    worst = float(np.max(error / np.where(reference > 0, reference, 1)) / eps)
    assert np.all(error <= bound * reference), f"{worst:.2f} eps relative"


def fake_dispatch_report(report):
    module = types.ModuleType("numpy.lib.introspect")
    module.opt_func_info = report
    return module


def raise_import_error(func_name=None, signature=None):
    raise ImportError("no dispatch report")


@pytest.mark.parametrize(
    "introspect, kernel",
    [
        (fake_dispatch_report(lambda func_name, signature: {"tan": {"dd": {"current": "X86_V4"}}}), "_sin_squares_by_tan"),
        (fake_dispatch_report(lambda func_name, signature: {"tan": {"dd": {"current": "baseline(X86_V2)"}}}), "_sin_squares_by_sin"),
        (fake_dispatch_report(raise_import_error), "_sin_squares_by_sin"),
        (None, "_sin_squares_by_sin"),  # as on numpy < 2.0, the module does not import
    ],
    ids=["simd", "baseline", "report_raises", "no_module"],
)
def test_sin_square_kernel_follows_numpy_tan_dispatch(monkeypatch, introspect, kernel):
    monkeypatch.setitem(sys.modules, "numpy.lib.introspect", introspect)
    assert gridres.quadrature._select_sin_squares() is getattr(gridres.quadrature, kernel)


def test_sin_square_kernel_chosen_once_from_this_numpy():
    assert gridres.quadrature._sin_squares is gridres.quadrature._select_sin_squares()


def test_monte_carlo_peak_memory():
    # Streaming holds one CHUNK_ROWS x d sample chunk, the block's f and f*f
    # (0.5 MiB each for 65,536 samples) and block_sum's working arrays of a
    # block's length: 3.0 MiB measured. Evaluating a whole 65,536 x 8 block
    # at once held its samples and four temporaries of the same size, 4 MiB
    # each: 12.0 MiB measured. 4 MiB separates the two with room for numpy
    # versions that keep one more block-length array.
    estimate_integral(8, budget=10**4)
    tracemalloc.start()
    try:
        estimate_integral(8, budget=4 * BASE_BLOCK + 4097, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
