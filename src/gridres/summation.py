"""Compensated summation over fixed base blocks with ordered reduction.

Every large reduction in the package is organized around a fixed partition
of the index space into base blocks of BASE_BLOCK items. Within a block,
block_sum adds the values in a pairwise tree of error-free TwoSum steps
whose shape depends only on the block's length. Across blocks, the block
partials are folded in block order. Workers may process blocks in any
order or in parallel, but neither the block contents nor either order
depends on the worker count, so results are bit-identical for any level
of parallelism.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import InvalidFamily
from .families import require_int

EPS = float(np.finfo(np.float64).eps)

# Fixed partition unit; changing it changes last-bit results, so it is a
# package constant rather than a tuning knob.
BASE_BLOCK = 65536
# Default cap on the terms of one spectral or quadrature sum.
MAX_TERMS = 10**8

T = TypeVar("T")


class CompensatedSum:
    """Neumaier accumulator with a running rounding-error bound."""

    __slots__ = ("_sum", "_comp", "abs_sum", "count")

    def __init__(self) -> None:
        self._sum = 0.0
        self._comp = 0.0
        self.abs_sum = 0.0
        self.count = 0

    def add(self, x: float) -> None:
        self._accumulate(float(x))
        self.abs_sum += abs(x)
        self.count += 1

    def _accumulate(self, x: float) -> None:
        t = self._sum + x
        if abs(self._sum) >= abs(x):
            self._comp += (self._sum - t) + x
        else:
            self._comp += (x - t) + self._sum
        self._sum = t

    def combine(self, other: "CompensatedSum") -> None:
        """Fold another partial in; callers fix the combine order."""
        self._accumulate(other._sum)
        self._accumulate(other._comp)
        self.abs_sum += other.abs_sum
        self.count += other.count

    @property
    def value(self) -> float:
        return self._sum + self._comp

    @property
    def err_bound(self) -> float:
        # Standard compensated-summation bound: proportional to eps times
        # the total absolute mass, independent of the term count.
        return 2.0 * EPS * self.abs_sum


def block_sum(values: np.ndarray) -> CompensatedSum:
    """Compensated sum of one base block's values (any shape, read row-major).

    One pairwise tree: each level adds the first half of the array to the
    second half elementwise with TwoSum, which yields each rounded sum t
    and its exact rounding error e; a level of odd length carries its last
    element up unchanged. Compensations ride the same tree as
    c = (c_a + c_b) + e. The tree's shape depends on the length alone, so
    the result is a pure function of the value array.

    The returned err_bound, 2 eps sum|x|, still holds: every TwoSum error
    is exact, so only the plain additions of the compensation tree round,
    and they add at most about (log2 n)^2 eps^2 sum|x| to the eps/2 |sum|
    of the final rounding.

    Working memory is one preallocated array of about 1.75 n values, updated
    in place: n/2 for the sums and n/4 to ping-pong them with, n/2 for the
    compensations and n/2 of scratch (the |x| pass uses its first n).
    """
    acc = CompensatedSum()
    s = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = s.size
    if n == 0:
        return acc
    acc.count = n
    add, sub = np.add, np.subtract
    h = n // 2
    half = h + 1  # a level's length after the first fold
    work = np.empty(2 * half + half // 2 + 1 + h)
    acc.abs_sum = float(np.abs(s, work[:n]).sum())
    sums, comp = work[:half], work[half : 2 * half]
    spare, scratch = work[2 * half : len(work) - h], work[len(work) - h :]
    # First level, TwoSum of a = s[:h] and b = s[h:2h] into t and e. Every
    # compensation is still zero, and c = (0 + 0) + e is e: e is never -0.0,
    # since a = b = -0.0 gives e = +0.0. b is the caller's, so b - bp goes
    # to scratch.
    a, b, t, e = s[:h], s[h : 2 * h], sums[:h], comp[:h]
    add(a, b, t)
    sub(t, a, e)  # bp
    sub(b, e, scratch)  # b - bp
    sub(t, e, e)
    sub(a, e, e)  # a - (t - bp)
    add(e, scratch, e)
    if n % 2:
        sums[h] = s[-1]
        comp[h] = 0.0
    m = h + n % 2
    while m > 1:
        # the same TwoSum with b - bp in b's place, then c = (c_a + c_b) + e
        h = m // 2
        a, b, t, e, c = sums[:h], sums[h : 2 * h], spare[:h], scratch[:h], comp[:h]
        add(a, b, t)
        sub(t, a, e)
        sub(b, e, b)
        sub(t, e, e)
        sub(a, e, e)
        add(e, b, e)
        add(c, comp[h : 2 * h], c)
        add(c, e, c)
        if m % 2:
            spare[h] = sums[m - 1]
            comp[h] = comp[m - 1]
        sums, spare = spare, sums
        m = h + m % 2
    acc._sum = float(sums[0])
    acc._comp = float(comp[0])
    return acc


def block_ranges(total: int, block: int = BASE_BLOCK) -> list[tuple[int, int]]:
    """Partition [0, total) into the fixed base-block ranges."""
    if total <= 0:
        return []
    return [(lo, min(lo + block, total)) for lo in range(0, total, block)]


def default_threads() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_threads(threads: object) -> int:
    """``threads`` as an int >= 1, or InvalidFamily: the one rule for every route."""
    threads = require_int(threads, "threads")
    if threads < 1:
        raise InvalidFamily(f"threads must be >= 1, got {threads}")
    return threads


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
    threads = check_threads(threads)
    workers = min(threads, len(ranges))
    if workers > 1:
        workers = min(workers, default_threads())
    if workers <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda r: fn(r[0], r[1]), ranges))


def reduce_blocks(
    total: int,
    term_fn: Callable[[int, int], np.ndarray],
    threads: int = 1,
) -> CompensatedSum:
    """Sum term_fn(lo, hi) arrays over the fixed partition of [0, total)."""
    partials = map_blocks(block_ranges(total), lambda lo, hi: block_sum(term_fn(lo, hi)), threads)
    acc = CompensatedSum()
    for partial in partials:
        acc.combine(partial)
    return acc
