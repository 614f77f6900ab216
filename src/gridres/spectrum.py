"""Closed-form Laplacian spectra of tori, and spectral averaging.

A ``SpectrumStream`` holds a graph's N Laplacian eigenvalues, one entry
each: a torus's (``torus_spectrum``) or a dense eigensolve's.

``closed_axis_sum`` is the fast route for lattice means. A lattice is its
(side, count) pairs in increasing side order and a kind in ``LATTICES``.
Side M's table is t[k] = 4 sin^2(pi x_k) over its points x_k = k/M at
"cycle" points (a torus's eigenvalues), the same without k = 0 at
"interior" points, and x_k = (k + 1/2)/M at "midpoint"s (cell midpoints
of the continuum grid), k in [0, M). The longest side is summed in closed
form and the others fold into one weighted row per class of index vectors
under mirroring each side and permuting equal sides (``folded_rows``):
C(floor(M/2) + d - 1, d - 1) rows for side M in d dimensions instead of
M^(d-1). ``check_lattice`` is its gate; the check is
``spectral_rave(torus_spectrum(dims))``, which enumerates all N terms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from .eigen import null_mode_count
from .errors import DisconnectedSpectrum, Overflow, SizeExceeded
from .families import Torus
from .summation import EPS, FLOAT_MAX, reduce_blocks

# Default cap on folded lattice rows and on torus_spectrum's eigenvalues: 2^24 float64.
MAX_ROWS = 2**24
LATTICES = ("cycle", "midpoint", "interior")
_count = itemgetter(1)  # of a (side, count) group
# Rounding of one weighted row of ``closed_axis_sum`` (two square roots,
# arcsinh, tanh and four products or quotients, then the product with the
# row's weight), in units of EPS relative to the weighted row: a
# first-order count gives 5 for the row and 1 for the weight, the rest is
# margin. Interior rows triple the row's part; the weight multiplies after
# that cancellation, so 3 x 5 + 1 stays inside 3 x ROW_EVAL_EPS.
ROW_EVAL_EPS = 8.0


@dataclass(frozen=True)
class ResistanceResult:
    """A computed average-resistance value plus how it was obtained."""

    value: float
    # closed_form | spectral (closed-form or dense-eigensolver eigenvalues) |
    # green_trace (explicit graphs, inverse Cholesky factor; err_bound covers
    # the two final sums and the factor's row sums, not the factorization) |
    # oracle_definition | recursion
    method: str
    terms: int
    err_bound: float


def side_contribution_table(m: int) -> np.ndarray:
    """The m-cycle's eigenvalues t[k] = 4 sin^2(pi k / m) = 2 - 2 cos(2 pi k / m), k in [0, m).

    The angle is reduced to pi min(k, m - k) / m, which keeps full relative
    accuracy for small angles and makes the mirror t[k] == t[m - k] exact.
    """
    k = np.arange(m, dtype=np.float64)
    s = np.sin(np.pi * (np.minimum(k, m - k) / m))
    return 4.0 * s * s


def _require_lattice(lattice: str) -> None:
    if lattice not in LATTICES:
        raise ValueError(f"unknown lattice kind {lattice!r}; expected one of {LATTICES}")


def _half_length(m: int, lattice: str) -> int:  # entries of half_table(m, lattice)
    _require_lattice(lattice)
    return (m + 2 - (lattice == "midpoint")) // 2 - (lattice == "interior")


def half_table(m: int, lattice: str = "cycle") -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of side m's table t[k] = 4 sin^2(pi x_k) and their multiplicities.

    Returns t[k] for k up to the mirror point, k <= m/2 at cycle points
    (from k = 1 for interior) and k <= (m - 1)/2 at midpoints, and how often
    each occurs in the full table: twice, except the entries that are
    their own mirror image, k = 0 and k = m/2 (m even) at cycle points and
    k = (m - 1)/2 (m odd) at midpoints. The points x_k are the lattice's
    (module docstring); sin is evaluated on the reduced rational argument,
    which keeps full relative accuracy for small angles.
    """
    start = int(lattice == "interior")
    k = np.arange(start, start + _half_length(m, lattice), dtype=np.float64)
    if lattice == "midpoint":
        k += 0.5
    s = np.sin(np.pi * (k / m))
    mult = np.empty(k.size)  # cheaper than np.full on the short tables of a torus sum
    mult.fill(2.0)
    if lattice == "cycle":
        mult[0] = 1.0
    if (m + (lattice == "midpoint")) % 2 == 0:
        mult[-1] = 1.0
    return 4.0 * s * s, mult


class SpectrumStream:
    """Laplacian eigenvalues ``values`` (float64), one entry per eigenvalue, N in all.

    The first ``zero_multiplicity`` entries are the null modes (1 for any
    connected graph); sums exclude them by index, never by a numeric
    tolerance.
    """

    def __init__(self, values: np.ndarray, zero_multiplicity: int = 1) -> None:
        self.values = values
        self.zero_multiplicity = zero_multiplicity

    def lambda_block(self, lo: int, hi: int) -> np.ndarray:
        """Eigenvalues at entries [lo, hi)."""
        return self.values[lo:hi]

    def inverse_terms(self, lo: int, hi: int) -> np.ndarray:
        """Summands 1 / eigenvalue at the non-null entries in [lo, hi)."""
        lo = max(lo, self.zero_multiplicity)
        return 1.0 / self.lambda_block(lo, hi)


def torus_spectrum(dims: list[int] | tuple[int, ...]) -> SpectrumStream:
    """All N eigenvalues of the toroidal grid with the given side lengths, row-major.

    The last axis varies fastest. Its entry is added first and the first
    axis's last, so every eigenvalue has one fixed rounding. Raises
    SizeExceeded above MAX_ROWS eigenvalues, before allocating.
    """
    family = Torus(tuple(dims))  # validates the descriptor
    n = family.node_count()
    if n > MAX_ROWS:
        raise SizeExceeded(f"{n} eigenvalues exceed the enumeration cap {MAX_ROWS}")
    values = np.zeros(1)
    for m in reversed(family.dims):
        values = np.add.outer(side_contribution_table(m), values).ravel()
    return SpectrumStream(values)


def stream_from_eigenvalues(eigenvalues: np.ndarray) -> SpectrumStream:
    """Wrap a dense eigensolve result as a stream of sorted eigenvalues.

    Null modes are identified by the |lambda| <= 1e-9 * lambda_max rule;
    connectivity is judged by the caller via zero_multiplicity.
    """
    values = np.sort(np.asarray(eigenvalues, dtype=np.float64))
    return SpectrumStream(values, null_mode_count(values))


def spectral_rave(stream: SpectrumStream) -> ResistanceResult:
    """Average effective resistance from a spectrum: (1/N) sum 1/lambda.

    Uses compensated summation over the fixed block partition of the
    stream's N entries, folded serially in block order. ``terms`` counts
    the nonzero eigenvalues, N - 1.
    """
    if stream.zero_multiplicity != 1:
        raise DisconnectedSpectrum(
            f"{stream.zero_multiplicity} zero eigenvalues in the stream; expected 1"
        )
    n = stream.values.size
    acc = reduce_blocks(n, stream.inverse_terms)
    return ResistanceResult(acc.value / n, "spectral", n - 1, acc.err_bound / n)


def folded_rows(
    groups: Sequence[tuple[int, int]], lattice: str = "cycle"
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct row values a = sum_i t_i[h_i] over a lattice, and their weights.

    ``groups`` are (side, count) pairs in increasing side order, and t_i is
    4 sin^2(pi x) over side i's lattice points x. Mirroring an axis and
    permuting equal sides leave a unchanged, so each row stands for one
    class of index vectors h. Every side keeps its ``half_table``, and a
    group of g equal sides is enumerated as non-decreasing index g-tuples:
    a tuple's weight is the multinomial g! / prod c_k! of its index counts
    c_k times the product of the entries' multiplicities. Groups combine as
    an outer product in the given order. The weights sum to the number of
    index vectors; ``folded_row_count`` counts the rows. The all-zero index
    vector comes first. No groups give the one row a = 0.

    A weight is built by at most one product and one quotient of integers
    per side and one product per further group; products by a
    multiplicity, a power of two, are exact. Every intermediate integer is
    at most d times the sum of the weights (d sides), so the weights are
    exact while that stays below 2^53. Above it, each weight carries fewer
    than 2d roundings of eps/2.
    """
    _require_lattice(lattice)
    folded = []
    for side, count in groups:
        folded.append(_multisets(*half_table(side, lattice), count))
    a, weight = folded[0] if folded else (np.zeros(1), np.ones(1))
    for group_a, group_weight in folded[1:]:
        a = np.add.outer(a, group_a).ravel()
        weight = np.multiply.outer(weight, group_weight).ravel()
    return a, weight


def folded_row_count(groups: Sequence[tuple[int, int]], lattice: str = "cycle") -> int:
    """Rows of ``folded_rows(groups, lattice)``, counted without building them."""
    _require_lattice(lattice)  # g equal sides with c half-table entries give C(c + g - 1, g) rows
    return math.prod(math.comb(_half_length(side, lattice) + g - 1, g) for side, g in groups)


def _multisets(values: np.ndarray, mult: np.ndarray, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Row sums and weights of the non-decreasing index g-tuples over one half table.

    Tuples grow one axis at a time in lexicographic order: a tuple ending in
    index l has children l .. c-1, and only the first child repeats l.
    ``run`` counts the trailing equal indices, so the multinomial
    j! / prod c_k! of a j-tuple is its parent's times j / run, and the
    weight takes the new index's multiplicity as well.
    """
    a, weight = values, mult
    if g == 1:
        return a, weight
    last = np.arange(values.size)
    run = np.ones_like(last)
    for j in range(2, g + 1):
        counts = values.size - last
        parent = np.repeat(np.arange(last.size), counts)
        first = np.cumsum(counts) - counts
        last = np.arange(parent.size) - np.repeat(first - last, counts)
        parent_run = run
        run = np.ones_like(last)
        run[first] += parent_run
        a = a[parent] + values[last]
        weight = weight[parent] * j / run * mult[last]
    return a, weight


def check_lattice(
    groups: Sequence[tuple[int, int]], lattice: str = "cycle", max_rows: int = MAX_ROWS
) -> tuple[list[tuple[int, int]], int, int]:
    """Check a lattice for ``closed_axis_sum``: its other groups, longest side M and exact size N.

    ValueError for a kind not in LATTICES. Overflow when N M d leaves the
    float range (d sides), seen from bit lengths before a power would: no
    two torus nodes are over d M / 2 steps apart, so a cycle or interior sum
    is below N M d / 4, a midpoint sum below N M / 4 and ``folded_rows``'
    integers below N d. SizeExceeded above ``max_rows`` rows of the other
    sides, counted only when their N / M index vectors (a bound) exceed it.
    """
    _require_lattice(lattice)
    *others, (m, g) = groups
    if g > 1:
        others.append((m, g - 1))
    d = sum(map(_count, groups))
    n = 1
    for side, count in groups:
        past = count > 1 and (side.bit_length() - 1) * count >= sys.float_info.max_exp
        if past or (n := n * side**count) * m * d > FLOAT_MAX:
            raise Overflow(f"a sum over this {d}-sided lattice leaves the float range")
    if n // m > max_rows and (rows := folded_row_count(others, lattice)) > max_rows:
        raise SizeExceeded(f"{rows} folded rows exceed the cap {max_rows}")
    return others, m, n


def closed_axis_sum(
    groups: Sequence[tuple[int, int]], lattice: str = "cycle", max_rows: int = MAX_ROWS
) -> tuple[float, float]:
    """Mean of 1 / sum_i t_i[h_i] over a lattice's N index vectors, its longest side in closed form.

    ``groups`` are (side, count) pairs in increasing side order, t_i is
    4 sin^2(pi x) over side i's lattice points x, and a cycle lattice drops
    h = 0. Raises as ``check_lattice``; returns (sum / N, err_bound / N), the
    bound covering the summation and every row's evaluation and weighting.

    The other sides fold into ``folded_rows``. With a row's value
    a = 4 sinh^2(theta / 2), r = sqrt(a (a + 4)) and M the longest side, a
    row sums over that side in closed form: sum_k 1 / (a + t[k]) is
    M / (r tanh(M theta / 2)) at cycle points and M tanh(M theta / 2) / r at
    midpoints. An interior row drops its k = 0 term 1/a. The row a = 0 (no
    other axis, or the null row of a cycle lattice) is the side's own sum
    over its nonzero entries, (M^2 - 1)/12 at cycle points and M^2/4 at
    midpoints. All rows are positive. Taking the longest side keeps
    M theta / 2 above 2.3 for cycle rows, where tanh is near 1 and well
    conditioned, and keeps 1/a below the interior row, so cancelling 1/a
    costs at most a factor 3 in the row's rounding. The weighted rows
    reduce serially over the fixed block partition (``reduce_blocks``), to
    within 2.2 u of their mass (u = eps/2, see ``summation.block_sum``).
    The row a = 0 joins that sum as one float add, to the value and to the
    mass. The add rounds by at most (1 + 2.2 u) u times the new mass, so
    the sum stays within 3.3 u of it, inside the 4 u of err_bound.
    """
    others, m, n = check_lattice(groups, lattice, max_rows)
    a, weight = folded_rows(others, lattice)
    midpoint, interior = lattice == "midpoint", lattice == "interior"
    zero_row = not others or lattice == "cycle"
    if zero_row:
        a, weight = a[1:], weight[1:]

    def rows(lo: int, hi: int) -> np.ndarray:
        b = a[lo:hi]
        r = np.sqrt(b * (b + 4.0))
        half = np.tanh(m * np.arcsinh(0.5 * np.sqrt(b)))  # tanh(M theta / 2)
        if midpoint:
            row = m * half / r
        else:
            row = m / (r * half)
            if interior:
                row -= 1.0 / b
        return weight[lo:hi] * row

    acc = reduce_blocks(a.size, rows)
    total, mass = acc.value, acc.abs_sum
    if zero_row:
        zero = m * m / 4.0 if midpoint else (m * m - 1) / 12.0
        total += zero
        mass += zero
    # a adds d - 1 positive entries, and a row passes the relative rounding
    # of a on unamplified. Weights round only above 2^53 (see folded_rows),
    # by fewer than 2 (d - 1) units of eps/2.
    folded = sum(map(_count, others))
    eval_eps = ROW_EVAL_EPS * (3.0 if interior else 1.0) + 0.5 * folded
    if folded * (n // m) > 2**53:
        eval_eps += folded
    return total / n, (2.0 * EPS * mass + eval_eps * EPS * mass) / n
