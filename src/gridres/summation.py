"""Compensated summation over fixed base blocks with ordered reduction.

Every large reduction in the package is organized around a fixed partition
of the index space into base blocks of BASE_BLOCK items. block_sum sums a
series of at most SHORT values with math.fsum, correctly rounded. Within a
longer block it splits each value by error-free extraction into a high
part, whose sum is exact in any order, and a low part, summed plainly;
both steps are fixed numpy passes over the block. block_sum sums every
float series in the package. Each sum is an immutable CompensatedSum,
built once by the kernel that computes it. ``fold`` is the one way to add
partials: math.fsum of their values, in block order. block_sum folds the
blocks of a long array with it, reduce_blocks a lattice sum's blocks, and
Monte Carlo its per-block sums.

reduce_blocks folds the blocks of a lattice sum serially: a folded torus
sum fits in one or a few blocks, where a thread pool costs more than it
saves. map_blocks runs a block function on a thread pool, results in block
order; seeded Monte Carlo is its one caller. Neither the block contents
nor the fold order depends on the worker count, so every result is
bit-identical for any thread count. Every public entry point that takes
``threads`` checks it with ``families.require_positive_int``, also where
it is not used.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .families import require_positive_int

EPS = float(np.finfo(np.float64).eps)
FLOAT_MAX = float(np.finfo(np.float64).max)

# Fixed partition unit; changing it changes last-bit results, so it is a
# package constant rather than a tuning knob.
BASE_BLOCK = 65536
# Longest series that block_sum sums with math.fsum. Extraction costs about
# 7 us at any length up to a few hundred values, math.fsum about 1 us at 3
# values and 4 us at 64; the two are level near 100 (one BLAS thread,
# 2-CPU machine). Like BASE_BLOCK it fixes last bits, so it is a constant.
SHORT = 64

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class CompensatedSum:
    """A sum's value, its summands' absolute mass and their count, with a rounding-error bound."""

    value: float
    abs_sum: float
    count: int

    @property
    def err_bound(self) -> float:
        # Proportional to eps times the total absolute mass, independent of
        # the term count; block_sum derives it.
        return 2.0 * EPS * self.abs_sum


_EMPTY = CompensatedSum(0.0, 0.0, 0)


def block_sum(values: np.ndarray) -> CompensatedSum:
    """Compensated sum of an array's values (any shape, read row-major).

    The result is a pure function of the array, so it is bit-identical for
    any thread count, and it keeps err_bound = 2 eps sum|x| = 4 u sum|x|
    (u = eps/2). One base block of n values is summed by one of two
    kernels.

    Short series, at most SHORT values: value = math.fsum of the values and
    abs_sum = math.fsum of their magnitudes (Shewchuk, "Adaptive precision
    floating-point arithmetic", Discrete Comput. Geom. 18, 1997), both
    correctly rounded, so |value - sum x| <= u |sum x| <= u sum|x|. Where
    either fsum raises (intermediate overflow, inf - inf) or sum|x| is not
    finite, the series is summed by extraction instead, so inf, NaN and
    near-overflow input behave as they do for longer series.

    Longer series: error-free extraction (Rump, Ogita & Oishi, "Accurate
    floating-point summation part I", SIAM J. Sci. Comput. 31(1), 2008).
    Take sigma = 2^k = 2^M 2^e with 2^M >= n + 2 and 2^e >= max|x|. Then
    q = (sigma + x) - sigma and r = x - q are exact, x = q + r, every q is
    a multiple of u sigma and |r| <= u sigma. Every partial sum of the q is
    a multiple of u sigma below sigma in magnitude, hence a float: their
    sum tau is exact in any order. The value is tau + c, with c the plain
    sum of the r. Each step is one numpy pass in an order fixed by the
    array alone.

    Bound: |c - sum r| <= gamma_(n-1) sum|r| <= gamma_(n-1) n u sigma, so
    |value - sum x| <= u |sum x| + (1 + u) gamma_(n-1) n u sigma
    <= u |sum x| + n^2 u^2 sigma (for n^2 u < 1). Since sigma <= 4 (n + 1)
    max|x|, for n <= BASE_BLOCK the last term is at most u max|x| / 8.

    A longer array is cut by block_ranges, each block summed as above, and
    the partials v_b are folded by ``fold``, as reduce_blocks folds its
    blocks. With S_b a block's exact sum and t_b its n^2 u^2 sigma term,
    |sum v_b - sum x| <= u sum|x| + sum t_b, and the fold adds at most
    u |sum v_b|. So |value - sum x| <= (2 + u) u sum|x| + (1 + u) sum t_b,
    and sum t_b <= u sum|x| / 8: below 2.2 u sum|x|, inside err_bound.

    Where 2^k would overflow, the parts are taken of x 2^(1023 - k) and
    scaled back. That scaling is exact except for parts below 2^-1074, far
    inside the last term. inf and NaN give the plain IEEE sum. Working
    memory is one array of n values, two where 2^k would overflow.
    """
    s = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if s.size <= BASE_BLOCK:
        return _block(s)
    return fold([_block(s[lo:hi]) for lo, hi in block_ranges(s.size)])


def _block(s: np.ndarray) -> CompensatedSum:
    """block_sum of one flat float64 block of at most BASE_BLOCK values."""
    if s.size <= SHORT:
        xs = s.tolist()
        try:
            total, mass = math.fsum(xs), math.fsum(map(abs, xs))
        except (OverflowError, ValueError):
            mass = math.inf
        if math.isfinite(mass):
            return CompensatedSum(total, mass, len(xs))
    return _extract_sum(s)


def _extract_sum(s: np.ndarray) -> CompensatedSum:
    """The extraction kernel of block_sum on a flat, non-empty float64 array."""
    n = s.size
    work = np.abs(s)
    mass = float(work.sum())
    biggest = float(work.max())
    if not math.isfinite(biggest):
        return CompensatedSum(float(s.sum()), mass, n)
    k = (n + 1).bit_length() + math.frexp(biggest)[1]
    shift = max(k - 1023, 0)
    if shift:
        s = s * 2.0**-shift
    scale = 2.0**shift
    sigma = math.ldexp(1.0, k - shift)
    np.add(s, sigma, work)
    np.subtract(work, sigma, work)  # q
    tau = float(work.sum()) * scale
    np.subtract(s, work, work)  # r
    return CompensatedSum(tau + float(work.sum()) * scale, mass, n)


def fold(parts: Sequence[CompensatedSum]) -> CompensatedSum:
    """Sum partials in the given order: their values by math.fsum, masses and counts added.

    fsum is correctly rounded, adding at most u |sum v| to the parts' own
    errors (see block_sum). Where it raises (intermediate overflow,
    inf - inf), the values are summed by extraction instead. One part is
    returned unchanged, and no parts give the empty sum without a call.
    """
    if len(parts) <= 1:
        return parts[0] if parts else _EMPTY
    values = [part.value for part in parts]
    mass = 0.0
    for part in parts:
        mass += part.abs_sum
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):
        total = _extract_sum(np.array(values)).value
    return CompensatedSum(total, mass, sum(part.count for part in parts))


def block_ranges(total: int) -> list[tuple[int, int]]:
    """Partition [0, total) into the fixed base-block ranges."""
    if total <= 0:
        return []
    return [(lo, min(lo + BASE_BLOCK, total)) for lo in range(0, total, BASE_BLOCK)]


def default_threads() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_blocks(
    ranges: Sequence[tuple[int, int]],
    fn: Callable[[int, int], T],
    threads: int = 1,
) -> list[T]:
    """Apply fn to every block range, results in block order.

    threads must be an integer >= 1 (InvalidFamily otherwise). The pool
    starts at most one worker per block and per CPU this process may run
    on, so a large thread count costs no extra OS threads.
    """
    threads = require_positive_int(threads, "threads")
    workers = min(threads, len(ranges))
    if workers > 1:
        workers = min(workers, default_threads())
    if workers <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda r: fn(r[0], r[1]), ranges))


def reduce_blocks(total: int, term_fn: Callable[[int, int], np.ndarray]) -> CompensatedSum:
    """Sum term_fn(lo, hi) arrays over the fixed partition of [0, total), folded in block order."""
    return fold([block_sum(term_fn(lo, hi)) for lo, hi in block_ranges(total)])
