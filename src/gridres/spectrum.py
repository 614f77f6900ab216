"""Closed-form Laplacian spectra of tori and hypercubes, and spectral averaging.

A ``SpectrumStream`` holds Laplacian eigenvalues with exact int64
multiplicities: a torus's N sums of one cycle-table entry 4 sin^2(pi k / M_i)
per side, a hypercube's 2m with multiplicities C(d, m), or a dense eigensolve's.

``closed_axis_sum`` is the fast route for torus lattices: it sums the
longest side in closed form and folds the other sides by symmetry, one
weighted row per class of index vectors under mirroring each side and
permuting equal sides (``folded_rows``). An equal-sided lattice of side M
in d dimensions then costs C(floor(M/2) + d - 1, d - 1) rows instead of
M^(d-1). ``rave_torus`` and the continuum sums in ``quadrature`` use it;
``spectral_rave(torus_spectrum(dims))`` enumerates all N terms and stays
as the independent check. ``check_lattice`` is their size and range gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Sequence

import numpy as np

from .eigen import null_mode_count
from .errors import DisconnectedSpectrum, Overflow, SizeExceeded
from .families import Hypercube, Torus
from .laplacian import DENSE_LIMIT
from .summation import EPS, FLOAT_MAX, reduce_blocks

# Default cap on folded lattice rows and on torus_spectrum's eigenvalues: 2^24 float64.
MAX_ROWS = DENSE_LIMIT**2
# Largest dimension whose binomial multiplicities all stay in the exact
# 64-bit integer range.
MAX_EXACT_HYPERCUBE = 63
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


def side_contribution_table(m: int, midpoint: bool = False) -> np.ndarray:
    """Per-axis contributions t[k] = 4 sin^2(pi x_k) for k in [0, m).

    Cycle points x_k = k/m give the cycle eigenvalues 2 - 2 cos(2 pi k/m);
    midpoints x_k = (k + 1/2)/m give the continuum grid's cell midpoints,
    which never hit the lattice images of the origin. The lower half is
    ``half_table``; the upper half mirrors it bit-exactly, t[k] == t[m - k]
    for cycles and t[k] == t[m - 1 - k] for midpoints.
    """
    lower, _ = half_table(m, midpoint)
    shift = int(midpoint)
    table = np.empty(m)
    table[: lower.size] = lower
    table[lower.size :] = lower[1 - shift : m + 1 - shift - lower.size][::-1]
    return table


def half_table(m: int, midpoint: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of ``side_contribution_table(m, midpoint)`` and their multiplicities.

    Returns t[k] for k up to the mirror point, k <= m/2 at cycle points and
    k <= (m - 1)/2 at midpoints, and how often each occurs in the full
    table: twice, except the entries that are their own mirror image, k = 0
    and k = m/2 (m even) at cycle points and k = (m - 1)/2 (m odd) at
    midpoints. sin is evaluated on the reduced rational argument, which
    keeps full relative accuracy for small angles.
    """
    shift = int(midpoint)
    lower = (m + 2 - shift) // 2
    k = np.arange(lower, dtype=np.float64)
    if midpoint:
        k += 0.5
    s = np.sin(np.pi * (k / m))
    mult = np.full(lower, 2.0)
    if not midpoint:
        mult[0] = 1.0
    if (m + shift) % 2 == 0:
        mult[-1] = 1.0
    return 4.0 * s * s, mult


class SpectrumStream:
    """Laplacian eigenvalues ``values`` (float64) with their ``multiplicity`` (exact int64).

    ``values[h]`` counts ``multiplicity[h]`` times. The first
    ``zero_multiplicity`` entries are the null modes (1 for any connected
    graph); sums exclude them by index, never by a numeric tolerance.
    ``count`` is the node count N, the multiplicities' total as a Python
    int, summed in uint64 and so exact below 2^64 (``hypercube_spectrum(63)``
    totals 2^63).
    """

    def __init__(
        self, values: np.ndarray, multiplicity: np.ndarray, zero_multiplicity: int = 1
    ) -> None:
        self.values = values
        self.multiplicity = multiplicity
        self.zero_multiplicity = zero_multiplicity
        self.count = int(multiplicity.sum(dtype=np.uint64))

    def pairs(self) -> Iterator[tuple[float, int]]:
        """Yield (eigenvalue, multiplicity) per entry, null modes included.

        The readable view of a stream, for inspection rather than sums: it
        lists the spectrum in stored order for comparison with a dense
        eigensolve, and yields multiplicities as exact Python ints.
        """
        return zip(self.values.tolist(), self.multiplicity.tolist())

    def lambda_block(self, lo: int, hi: int) -> np.ndarray:
        """Eigenvalues at entries [lo, hi)."""
        return self.values[lo:hi]

    def inverse_terms(self, lo: int, hi: int) -> np.ndarray:
        """Summands multiplicity / eigenvalue at the non-null entries in [lo, hi)."""
        lo = max(lo, self.zero_multiplicity)
        return self.multiplicity[lo:hi] / self.lambda_block(lo, hi)


def _unit_multiplicity(n: int) -> np.ndarray:
    """n multiplicities of 1, as a read-only view of one int64 rather than n of them."""
    return np.broadcast_to(np.int64(1), (n,))


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
    return SpectrumStream(values, _unit_multiplicity(n))


def exact_hypercube_dimension(d: int) -> int:
    """``d`` checked as a Hypercube dimension with exact int64 multiplicities.

    Raises InvalidFamily for what ``Hypercube`` refuses and Overflow above
    MAX_EXACT_HYPERCUBE, where some C(d, m) leaves the exact 64-bit range.
    """
    d = Hypercube(d).d
    if d > MAX_EXACT_HYPERCUBE:
        raise Overflow(
            f"binomial multiplicities for d={d} exceed the exact integer range "
            f"(supported up to d={MAX_EXACT_HYPERCUBE})"
        )
    return d


def hypercube_spectrum(d: int) -> SpectrumStream:
    """Spectrum stream of the d-dimensional hypercube: (2m, C(d, m)), m = 0 .. d."""
    d = exact_hypercube_dimension(d)
    multiplicity = np.array([math.comb(d, m) for m in range(d + 1)], dtype=np.int64)
    return SpectrumStream(2.0 * np.arange(d + 1), multiplicity)


def stream_from_eigenvalues(eigenvalues: np.ndarray) -> SpectrumStream:
    """Wrap a dense eigensolve result as a stream of sorted eigenvalues, each counted once.

    Null modes are identified by the |lambda| <= 1e-9 * lambda_max rule;
    connectivity is judged by the caller via zero_multiplicity.
    """
    values = np.sort(np.asarray(eigenvalues, dtype=np.float64))
    return SpectrumStream(values, _unit_multiplicity(values.size), null_mode_count(values))


def spectral_rave(stream: SpectrumStream) -> ResistanceResult:
    """Average effective resistance from a spectrum: (1/N) sum mult/lambda.

    Uses compensated summation over the fixed block partition of the
    stream's entries, folded serially in block order. ``terms`` counts the
    nonzero eigenvalues with multiplicity, N - 1.
    """
    if stream.zero_multiplicity != 1:
        raise DisconnectedSpectrum(
            f"{stream.zero_multiplicity} zero eigenvalues in the stream; expected 1"
        )
    n = stream.count
    acc = reduce_blocks(stream.values.size, stream.inverse_terms)
    return ResistanceResult(acc.value / n, "spectral", n - 1, acc.err_bound / n)


def folded_rows(
    sides: Sequence[int], midpoint: bool = False, interior: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct row values a = sum_i t_i[h_i] over a lattice, and their weights.

    t_i is ``side_contribution_table(sides[i], midpoint)``, without its
    k = 0 entry when ``interior``. Mirroring an axis and permuting equal
    sides leave a unchanged, so each row stands for one class of index
    vectors h. Every side keeps its ``half_table``, and a group of g equal
    sides is enumerated as non-decreasing index g-tuples: a tuple's weight
    is the multinomial g! / prod c_k! of its index counts c_k times the
    product of the entries' multiplicities. Groups of different sides
    combine as an outer product, in increasing side order. The weights sum
    to the number of index vectors; ``folded_row_count`` counts the rows.
    The all-zero index vector comes first. No sides give the one row a = 0.

    A weight is built by at most one product and one quotient of integers
    per side and one product per further group; products by a
    multiplicity, a power of two, are exact. Every intermediate integer is
    at most len(sides) times the sum of the weights, so the weights are
    exact while that stays below 2^53. Above it, each weight carries fewer
    than 2 len(sides) roundings of eps/2.
    """
    start = int(interior)
    groups = []
    for side, group in groupby(sorted(sides)):
        values, mult = half_table(side, midpoint)
        groups.append(_multisets(values[start:], mult[start:], len(list(group))))
    a, weight = groups[0] if groups else (np.zeros(1), np.ones(1))
    for group_a, group_weight in groups[1:]:
        a = np.add.outer(a, group_a).ravel()
        weight = np.multiply.outer(weight, group_weight).ravel()
    return a, weight


def folded_row_count(sides: Sequence[int], midpoint: bool = False, interior: bool = False) -> int:
    """Rows of ``folded_rows(sides, midpoint, interior)``, counted without building them."""
    count = 1
    for side in set(sides):
        g = sides.count(side)  # C(c + g - 1, g) rows, c entries in the half table folded_rows uses
        count *= math.comb((side + 2 - midpoint) // 2 - interior + g - 1, g)
    return count


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
    dims: Sequence[int], midpoint: bool = False, interior: bool = False, max_rows: int = MAX_ROWS
) -> tuple[list[int], int]:
    """Check a lattice for ``closed_axis_sum``; return its other sides, sorted, and its longest.

    Overflow when N M d leaves the float range (N points, longest side M,
    d sides), multiplied up only until it does: no two torus nodes are over
    d M / 2 steps apart, so a cycle or interior sum stays below N M d / 4, a
    midpoint sum below N M / 4, and ``folded_rows``' integers below N d.
    SizeExceeded above ``max_rows`` rows of the other sides, counted when
    their N / M index vectors, which bound the rows, exceed it.
    """
    sides = sorted(dims)
    m = sides.pop()
    n = m * len(dims)
    for side in dims:
        if (n := n * side) > FLOAT_MAX:
            raise Overflow(f"a sum over this {len(dims)}-sided lattice leaves the float range")
    if math.prod(sides) > max_rows:
        rows = folded_row_count(sides, midpoint, interior)
        if rows > max_rows:
            raise SizeExceeded(f"{rows} folded rows exceed the cap {max_rows}")
    return sides, m


def closed_axis_sum(
    dims: Sequence[int], midpoint: bool = False, interior: bool = False, max_rows: int = MAX_ROWS
) -> tuple[float, float]:
    """Sum of 1 / sum_i t_i[h_i] over a torus lattice, its longest side in closed form.

    t_i is ``side_contribution_table(dims[i], midpoint)``; cycle tables drop
    the null mode h = 0, and ``interior`` keeps only h with no zero component.
    Raises as ``check_lattice``; returns (value, err_bound), the bound
    covering the summation and every row's evaluation and weighting.

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
    reduce serially over the fixed block partition (``reduce_blocks``).
    """
    sides, m = check_lattice(dims, midpoint, interior, max_rows)
    a, weight = folded_rows(sides, midpoint, interior)
    zero_row = not sides or not (midpoint or interior)
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
    if zero_row:
        acc.add(m * m / 4.0 if midpoint else (m * m - 1) / 12.0)
    # a adds len(sides) positive entries, and a row passes the relative
    # rounding of a on unamplified. Weights round only above 2^53 (see
    # folded_rows), by fewer than 2 len(sides) units of eps/2.
    eval_eps = ROW_EVAL_EPS * (3.0 if interior else 1.0) + 0.5 * len(sides)
    if len(sides) * math.prod(sides) > 2**53:
        eval_eps += len(sides)
    return acc.value, acc.err_bound + eval_eps * EPS * acc.abs_sum
