import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import (
    Explicit,
    Hypercube,
    InvalidFamily,
    Ring,
    Torus,
    estimate_integral,
    interior_sum,
    rave,
    rave_torus,
    summation,
)
from gridres.summation import (
    BASE_BLOCK,
    EPS,
    SHORT,
    CompensatedSum,
    block_ranges,
    block_sum,
    fold,
    map_blocks,
    reduce_blocks,
)


def _scalars(values):
    return [CompensatedSum(x, abs(x), 1) for x in values]


def test_fold_of_scalars_matches_fsum():
    values = [1e16, 1.0, -1e16, 1.0, 0.5, 1e-8]
    acc = fold(_scalars(values))
    assert acc.value == math.fsum(values)
    assert acc.abs_sum == pytest.approx(2e16 + 2.5, rel=EPS)
    assert acc.err_bound == 2.0 * EPS * acc.abs_sum
    assert acc.count == len(values)


def test_fold_of_one_part_or_none():
    part = CompensatedSum(0.1, 0.3, 7)
    assert fold([part]) is part
    assert fold([]) == CompensatedSum(0.0, 0.0, 0)


def test_fold_fallbacks():
    # Where fsum raises, the values are summed by extraction: an
    # intermediate overflow gives the finite sum, inf - inf gives NaN. An
    # inf or NaN that fsum takes comes out of it unchanged.
    with np.errstate(over="ignore", invalid="ignore"):
        acc = fold(_scalars([1e308, 1e308, -1e308]))
        assert math.isnan(fold(_scalars([np.inf, 3.0, -np.inf])).value)
    assert acc.value == 1e308
    assert acc.abs_sum == acc.err_bound == np.inf and acc.count == 3
    assert fold(_scalars([np.inf, 1.0])).value == np.inf
    assert math.isnan(fold(_scalars([1.0, np.nan])).value)


def test_compensated_sum_is_immutable():
    acc = block_sum(np.arange(5.0))
    with pytest.raises(AttributeError):
        acc.value = 0.0


def test_block_sum_beats_naive_on_cancellation():
    # Large equal-magnitude pairs around tiny terms defeat naive np.sum
    # ordering but not error-free extraction: the pair's high parts cancel
    # exactly, and its low parts join the small terms in the plain sum.
    rng = np.random.Generator(np.random.PCG64(0))
    small = rng.random(4096) * 1e-9
    values = np.concatenate([[1e15], small, [-1e15]])
    exact = math.fsum(values.tolist())
    assert abs(block_sum(values).value - exact) <= 1e-12 * abs(exact)


def _wide_values(n, seed):
    """Seeded values over 26 decades; from n = 2 on, the ends hold a cancelling pair."""
    rng = np.random.Generator(np.random.PCG64(seed))
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-13.0, 13.0, n)
    if n >= 2:
        values[0], values[-1] = 7.5e13, -7.5e13
    return values


@pytest.mark.parametrize("n", [1, 2, 3, 511, 512, 513, 4097, 65535, 65536])
def test_block_sum_is_correctly_rounded_within_bound(n):
    values = _wide_values(n, seed=n)
    exact = sum(map(Fraction, values.tolist()), Fraction(0))
    acc = block_sum(values)
    assert abs(Fraction(acc.value) - exact) <= Fraction(acc.err_bound)
    assert acc.value == float(exact)


def test_block_sum_reads_views_as_their_contiguous_copy():
    values = _wide_values(3 * 4097, seed=7)
    matrix = values.reshape(3, 4097)
    for view in (matrix, matrix.T, values[::3], matrix[:, ::2]):
        got, ref = block_sum(view), block_sum(np.array(view).ravel())
        assert got == ref


def test_block_sum_count_and_abs_sum():
    # abs_sum is correctly rounded up to SHORT values, a numpy sum beyond
    for n in (0, 1, 2, 3, 17, SHORT, SHORT + 1, 513, 65536):
        values = _wide_values(n, seed=3)
        acc = block_sum(values)
        assert acc.count == n
        magnitudes = np.abs(values)
        assert acc.abs_sum == (math.fsum(magnitudes.tolist()) if n <= SHORT else float(magnitudes.sum()))
        assert acc.err_bound == 2.0 * EPS * acc.abs_sum


LENGTHS = sorted(
    set(range(1, 130))
    | {2**k + d for k in range(7, 18) for d in (-1, 0, 1)}
    | {3 * 4097, 65535 + 2 * 4097, 2**17 - 3}
)


def _exact_sum(values):
    """The rational sum of float64 values, in integer multiples of 2^-1074."""
    total = 0
    for num, den in map(float.as_integer_ratio, values.tolist()):
        total += (num << 1074) // den  # den is a power of two <= 2^1074
    return Fraction(total, 1 << 1074)


def _check_exact(values):
    """block_sum(values) against the exact rational sum, with no warning raised.

    Every length is within err_bound. One base block is also within the
    bound the block_sum docstring derives, u |sum x| + n^2 u^2 sigma with
    u = eps/2 and sigma = 2^k, 2^k >= (n + 2) max|x| as block_sum takes it;
    a longer array is the ordered fold of its base blocks' sums.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc = block_sum(values)
    n = values.size
    exact = _exact_sum(values)
    err = abs(Fraction(acc.value) - exact)
    assert err <= Fraction(acc.err_bound), n
    if n <= BASE_BLOCK:
        u = Fraction(EPS) / 2
        k = (n + 1).bit_length() + math.frexp(float(np.abs(values).max()))[1]
        assert err <= u * abs(exact) + n * n * u * u * Fraction(2) ** k, n
    else:
        assert acc == fold([block_sum(values[lo:hi]) for lo, hi in block_ranges(n)]), n


def test_block_sum_exact_rational_bounds():
    rng = np.random.Generator(np.random.PCG64(12))
    for n in LENGTHS:
        values = _wide_values(n, seed=n)
        # signed zeros, exact ties and cancelling neighbours
        values[rng.integers(0, n, n // 7 + 1)] = -0.0
        values[rng.integers(0, n, n // 7 + 1)] = 1.0
        values[rng.integers(0, n, n // 7 + 1)] = -1.0
        _check_exact(values)
    for n in (1, 2, 3, 64, 65, 4097):
        for fill in (-0.0, 0.0, 1e300, -5e-324):
            _check_exact(np.full(n, fill))
        # max|x| near the top of the range, where 2^k would overflow, with
        # sum|x| still finite: one value at -1.7e308, or a cancelling 8.9e307 pair
        values = _wide_values(n, seed=n) * 1e290
        values[n // 2] = -1.7e308
        _check_exact(values)
        if n >= 2:
            values = _wide_values(n, seed=n) * 1e290
            values[0], values[-1] = 8.9e307, -8.9e307
            _check_exact(values)
        # subnormal and smallest normal magnitudes
        _check_exact(_wide_values(n, seed=n) * 1e-310)


def _signed_wide_values(n, seed):
    """_wide_values with signed zeros, exact ties and cancelling neighbours."""
    rng = np.random.Generator(np.random.PCG64(seed))
    values = _wide_values(n, seed=seed)
    for fill in (-0.0, 1.0, -1.0):
        values[rng.integers(0, n, n // 7 + 1)] = fill
    return values


@pytest.mark.parametrize("n", [SHORT - 1, SHORT, SHORT + 1])
def test_short_series_at_the_crossover(n):
    # Up to SHORT values the sum is math.fsum's, correctly rounded; one
    # value more is the extraction's.
    for seed in range(20):
        values = _signed_wide_values(n, seed)
        exact = _exact_sum(values)
        acc = block_sum(values)
        assert abs(Fraction(acc.value) - exact) <= Fraction(EPS) / 2 * abs(exact) <= Fraction(acc.err_bound)
        if n <= SHORT:
            assert acc.value == float(exact)
        else:
            assert acc == summation._extract_sum(values)


def test_short_series_fallbacks():
    # Where fsum raises or sum|x| overflows, a short series is summed by
    # extraction, as a long one would be: no OverflowError or ValueError.
    cases = [
        ([1e308, 1e308, -1e308], 1e308),  # fsum: intermediate overflow
        ([1e308, -1e308, 1e308], 1e308),  # the value fits, sum|x| overflows
        ([np.inf, 3.0, -np.inf], math.nan),  # fsum: inf - inf
        ([np.nan, 1.0], math.nan),
        ([-np.inf, 1.0], -math.inf),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for values, expected in cases:
            values = np.array(values)
            acc = block_sum(values)
            assert repr(acc) == repr(summation._extract_sum(values))
            assert repr(acc.value) == repr(expected)
            assert acc.count == values.size and not math.isfinite(acc.err_bound)
    # all -0.0 sums to +0.0 in both regimes
    for n in (1, 2, SHORT, SHORT + 1):
        acc = block_sum(np.full(n, -0.0))
        assert math.copysign(1.0, acc.value) == 1.0 and acc.value == 0.0
        assert (acc.abs_sum, acc.err_bound, acc.count) == (0.0, 0.0, n)


def test_monte_carlo_with_a_short_last_block_is_thread_independent():
    budget = BASE_BLOCK + 10
    assert block_ranges(budget)[-1] == (BASE_BLOCK, budget)  # 10 < SHORT values
    one, two = (estimate_integral(3, method="monte_carlo", budget=budget, seed=5, threads=t) for t in (1, 2))
    assert (one.value.hex(), one.err.hex()) == (two.value.hex(), two.err.hex())


def test_block_sum_propagates_inf_and_nan():
    assert block_sum(np.array([np.inf, 1.0, -2.0])).value == np.inf
    assert block_sum(np.array([1.0, -np.inf])).value == -np.inf
    assert math.isnan(block_sum(np.array([1.0, np.nan, 2.0])).value)
    with np.errstate(invalid="ignore"):
        assert math.isnan(block_sum(np.array([np.inf, 3.0, -np.inf])).value)
    acc = block_sum(np.array([np.inf, 1.0]))
    assert acc.abs_sum == acc.err_bound == np.inf
    # across blocks too: the fold's fsum keeps an infinite block's sign
    long = np.ones(BASE_BLOCK + 10)
    long[-1] = -np.inf
    assert block_sum(long).value == -np.inf
    long[3] = np.inf
    with np.errstate(invalid="ignore"):
        assert math.isnan(block_sum(long).value)


def test_block_sum_peak_memory():
    # A TwoSum tree with fresh arrays per level held 1.75 MiB of traced peak
    # for 65,536 values (0.5 MiB), and one in place 0.88 MiB. Error-free
    # extraction works in one array of n values: 0.5 MiB.
    values = _wide_values(BASE_BLOCK, seed=5)
    block_sum(values)
    tracemalloc.start()
    try:
        block_sum(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=0,
        max_size=300,
    )
)
def test_block_sum_matches_fsum(values):
    arr = np.array(values)
    got = block_sum(arr).value
    exact = math.fsum(values)
    assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact))


def test_block_ranges_partition():
    ranges = block_ranges(3 * BASE_BLOCK + 17)
    assert ranges[0] == (0, BASE_BLOCK)
    assert ranges[-1] == (3 * BASE_BLOCK, 3 * BASE_BLOCK + 17)
    assert sum(hi - lo for lo, hi in ranges) == 3 * BASE_BLOCK + 17
    assert block_ranges(0) == []


def test_map_blocks_preserves_order():
    ranges = block_ranges(5 * BASE_BLOCK)
    serial = map_blocks(ranges, lambda lo, hi: lo, threads=1)
    threaded = map_blocks(ranges, lambda lo, hi: lo, threads=4)
    assert serial == threaded == [lo for lo, _ in ranges]


@pytest.mark.parametrize("threads", ["2", 2.0, 0, -3, -5])
def test_threads_validated(threads):
    # every entry point that takes threads checks it, also where it is not used
    families = (Ring(5), Torus((4, 4)), Hypercube(3), Explicit(3, [(0, 1), (1, 2)]))
    for call in (
        lambda: map_blocks(block_ranges(10), lambda lo, hi: lo, threads),
        lambda: rave_torus((4, 4), threads=threads),
        lambda: interior_sum(4, 3, threads=threads),
        lambda: estimate_integral(3, budget=10**4, threads=threads),
        lambda: estimate_integral(3, method="riemann_refined", budget=10**4, threads=threads),
        *(lambda g=g: rave(g, threads=threads) for g in families),
    ):
        with pytest.raises(InvalidFamily, match="threads"):
            call()


def test_pool_capped_by_blocks_and_cpus(monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(summation, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(summation, "default_threads", lambda: 4)
    ranges = block_ranges(10**8)
    assert len(ranges) == 1526
    assert map_blocks(ranges, lambda lo, hi: lo, 10**6) == [lo for lo, _ in ranges]
    assert map_blocks(ranges[:3], lambda lo, hi: lo, 10**6) == [0, BASE_BLOCK, 2 * BASE_BLOCK]
    assert map_blocks(ranges, lambda lo, hi: lo, 2)[-1] == ranges[-1][0]
    assert started == [4, 3, 2]
    # one block, one thread or one CPU: no pool at all
    map_blocks(ranges[:1], lambda lo, hi: lo, 8)
    map_blocks(ranges, lambda lo, hi: lo, 1)
    monkeypatch.setattr(summation, "default_threads", lambda: 1)
    map_blocks(ranges, lambda lo, hi: lo, 8)
    assert started == [4, 3, 2]


def test_reduce_blocks_folds_blocks_in_order(monkeypatch):
    total = 2 * BASE_BLOCK + 999

    def terms(lo, hi):
        idx = np.arange(lo, hi, dtype=np.float64)
        return 1.0 / (idx + 1.0) ** 2

    def forbidden(*args, **kwargs):
        raise AssertionError("reduce_blocks reached the thread pool")

    expected = fold([block_sum(terms(lo, hi)) for lo, hi in block_ranges(total)])
    monkeypatch.setattr(summation, "map_blocks", forbidden)
    monkeypatch.setattr(summation, "ThreadPoolExecutor", forbidden)
    got = reduce_blocks(total, terms)
    assert got == expected
    assert abs(got.value - math.pi**2 / 6.0) < 1e-5  # partial zeta(2)


def test_fold_of_blocks_is_block_sum():
    rng = np.random.Generator(np.random.PCG64(1))
    arr = rng.normal(size=3 * BASE_BLOCK)
    whole = fold([block_sum(arr[lo:hi]) for lo, hi in block_ranges(arr.size)])
    assert abs(whole.value - math.fsum(arr.tolist())) <= 1e-9
    assert whole.count == arr.size
    assert whole == block_sum(arr)


def test_block_sum_folds_like_reduce_blocks():
    # A long array's last block of at most SHORT values is summed by
    # math.fsum in both, and both fold the blocks with fold.
    for n in range(BASE_BLOCK + 1, BASE_BLOCK + SHORT + 1):
        values = _wide_values(n, seed=n)
        assert block_sum(values) == reduce_blocks(n, lambda lo, hi: values[lo:hi]), n
