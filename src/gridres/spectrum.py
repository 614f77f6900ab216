"""Closed-form Laplacian spectra of tori and hypercubes, and spectral averaging.

Every spectrum here is a sum of per-axis tables. A stream holds tables
t_0, ..., t_{d-1}; the eigenvalue at the row-major flat index of
h = (h_0, ..., h_{d-1}) is t_0[h_0] + ... + t_{d-1}[h_{d-1}]. A torus has
one cycle table 4 sin^2(pi k / M_i) per side; a hypercube has one axis of
eigenvalues 2m with exact binomial multiplicities C(d, m); a dense
eigensolve has one axis of sorted eigenvalues. The first
``zero_multiplicity`` flat indices are the null modes. Consumers pull
fixed-size flat-index blocks, so no stream materializes O(N) storage.
``table_sums`` is the one decode of flat indices.

``closed_axis_sum`` is the fast route for torus lattices: it enumerates
every axis but the longest and sums that one in closed form, so a lattice
of N points costs N / M_max rows. ``rave_torus`` and the continuum sums in
``quadrature`` use it; ``spectral_rave(torus_spectrum(dims))`` enumerates
all N terms and stays as the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .eigen import null_mode_count
from .errors import DisconnectedSpectrum, Overflow
from .families import Hypercube, Torus
from .summation import EPS, block_ranges, reduce_blocks

# Largest dimension whose binomial multiplicities all stay in the exact
# 64-bit integer range.
MAX_EXACT_HYPERCUBE = 63
# Rounding of one closed-form row of ``closed_axis_sum`` (two square roots,
# arcsinh, tanh and four products or quotients), in units of EPS relative
# to the row: a first-order count gives 5, the rest is margin.
ROW_EVAL_EPS = 8.0


@dataclass(frozen=True)
class ResistanceResult:
    """A computed average-resistance value plus how it was obtained."""

    value: float
    # closed_form | spectral (closed-form or dense-eigensolver eigenvalues; a
    # torus sums its longest side in closed form, but terms still counts
    # N - 1 and the term cap still counts N) |
    # green_trace (explicit graphs, Cholesky; err_bound covers the two final
    # sums only) | oracle_definition | recursion
    method: str
    terms: int
    err_bound: float


def side_contribution_table(m: int, midpoint: bool = False) -> np.ndarray:
    """Per-axis contributions t[k] = 4 sin^2(pi x_k) for k in [0, m).

    Cycle points x_k = k/m give the cycle eigenvalues 2 - 2 cos(2 pi k/m);
    midpoints x_k = (k + 1/2)/m give the continuum grid's cell midpoints,
    which never hit the lattice images of the origin. sin is evaluated on
    the reduced rational argument, which keeps full relative accuracy for
    small angles, and only on the lower half: the upper half mirrors it
    bit-exactly, t[k] == t[m - k] for cycles and t[k] == t[m - 1 - k] for
    midpoints.
    """
    shift = int(midpoint)
    lower = (m + 2 - shift) // 2
    k = np.arange(lower, dtype=np.float64)
    if midpoint:
        k += 0.5
    s = np.sin(np.pi * (k / m))
    table = np.empty(m)
    table[:lower] = 4.0 * s * s
    table[lower:] = table[1 - shift : m + 1 - shift - lower][::-1]
    return table


def table_sums(tables: Sequence[np.ndarray], lo: int, hi: int) -> np.ndarray:
    """sum_i tables[i][h_i] for the row-major flat indices of h in [lo, hi).

    The last axis varies fastest. Its entry is added first and the first
    axis's last; the order is fixed so every caller's sums are reproducible.
    """
    idx = np.arange(lo, hi)
    out = np.zeros(idx.size)
    for table in reversed(tables):
        out += table[idx % table.size]
        idx //= table.size
    return out


class SpectrumStream:
    """Laplacian eigenvalues as a sum of per-axis tables, in flat-index blocks.

    The eigenvalue at flat index h is ``table_sums(tables, h, h + 1)``. It
    counts ``multiplicity[h]`` times when a multiplicity vector is given (a
    single axis, exact int64) and once otherwise. The first
    ``zero_multiplicity`` flat indices are the null modes (1 for any
    connected graph); sums exclude them by index, never by a numeric
    tolerance.
    """

    def __init__(
        self,
        tables: Sequence[np.ndarray],
        zero_multiplicity: int = 1,
        multiplicity: np.ndarray | None = None,
    ) -> None:
        self.tables = tuple(tables)
        self.zero_multiplicity = zero_multiplicity
        self.multiplicity = multiplicity
        # node count N: eigenvalues counted with multiplicity
        self.count = self.term_count() if multiplicity is None else sum(multiplicity.tolist())

    def term_count(self) -> int:
        """Number of flat indices, null modes included."""
        return math.prod(table.size for table in self.tables)

    def _weights(self, lo: int, hi: int) -> float | np.ndarray:
        return 1.0 if self.multiplicity is None else self.multiplicity[lo:hi]

    def pairs(self) -> Iterator[tuple[float, int]]:
        """Yield (eigenvalue, multiplicity) per flat index, null modes included.

        The readable view of a stream, for inspection rather than sums: it
        lists the spectrum in flat-index order for comparison with a dense
        eigensolve, and yields multiplicities as exact Python ints.
        """
        for lo, hi in block_ranges(self.term_count()):
            weights = repeat(1) if self.multiplicity is None else self.multiplicity[lo:hi].tolist()
            yield from zip(self.lambda_block(lo, hi).tolist(), weights)

    def lambda_block(self, lo: int, hi: int) -> np.ndarray:
        """Eigenvalues at flat indices [lo, hi)."""
        return table_sums(self.tables, lo, hi)

    def inverse_terms(self, lo: int, hi: int) -> np.ndarray:
        """Summands multiplicity / eigenvalue at the non-null flat indices in [lo, hi)."""
        lo = max(lo, self.zero_multiplicity)
        return self._weights(lo, hi) / self.lambda_block(lo, hi)


def torus_spectrum(dims: list[int] | tuple[int, ...]) -> SpectrumStream:
    """Spectrum stream of the toroidal grid with the given side lengths."""
    family = Torus(tuple(dims))  # validates the descriptor
    return SpectrumStream([side_contribution_table(m) for m in family.dims])


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
    return SpectrumStream([2.0 * np.arange(d + 1)], multiplicity=multiplicity)


def stream_from_eigenvalues(eigenvalues: np.ndarray) -> SpectrumStream:
    """Wrap a dense eigensolve result as a one-axis stream.

    Null modes are identified by the |lambda| <= 1e-9 * lambda_max rule;
    connectivity is judged by the caller via zero_multiplicity.
    """
    values = np.sort(np.asarray(eigenvalues, dtype=np.float64))
    return SpectrumStream([values], null_mode_count(values))


def spectral_rave(stream: SpectrumStream, threads: int = 1) -> ResistanceResult:
    """Average effective resistance from a spectrum: (1/N) sum mult/lambda.

    Uses compensated summation over the stream's fixed block partition;
    partials merge in block order, so the value is bit-identical for any
    worker count. ``terms`` counts the nonzero eigenvalues with
    multiplicity, N - 1.
    """
    if stream.zero_multiplicity != 1:
        raise DisconnectedSpectrum(
            f"{stream.zero_multiplicity} zero eigenvalues in the stream; expected 1"
        )
    n = stream.count
    acc = reduce_blocks(stream.term_count(), stream.inverse_terms, threads)
    return ResistanceResult(acc.value / n, "spectral", n - 1, acc.err_bound / n)


def closed_axis_sum(
    dims: Sequence[int],
    midpoint: bool = False,
    interior: bool = False,
    threads: int = 1,
) -> tuple[float, float]:
    """Sum of 1 / sum_i t_i[h_i] over a torus lattice, its longest side in closed form.

    t_i is ``side_contribution_table(dims[i], midpoint)``. On cycle tables
    the null mode h = 0 is left out, and ``interior`` keeps only the h whose
    components are all nonzero. Returns (value, err_bound); the bound covers
    the summation and the evaluation of every row.

    The other axes decode into rows a = sum of their table entries through
    ``table_sums``. With a = 4 sinh^2(theta / 2), r = sqrt(a (a + 4)) and M
    the longest side, a row sums over that side in closed form:
    sum_k 1 / (a + t[k]) is M / (r tanh(M theta / 2)) at cycle points and
    M tanh(M theta / 2) / r at midpoints. An interior row drops its k = 0
    term 1/a. The row a = 0 (no other axis, or the null row of a cycle
    lattice) is the side's own sum over its nonzero entries, (M^2 - 1)/12
    at cycle points and M^2/4 at midpoints. All rows are positive. Taking
    the longest side keeps M theta / 2 above 2.3 for cycle rows, where tanh
    is near 1 and well conditioned, and keeps 1/a below the interior row,
    so cancelling 1/a costs at most a factor 3 in the row's rounding. Rows
    reduce over the fixed block partition, so the value is bit-identical
    for any thread count.
    """
    axis = max(range(len(dims)), key=lambda i: dims[i])
    m = dims[axis]
    others = [
        side_contribution_table(side, midpoint)[int(interior):]
        for i, side in enumerate(dims)
        if i != axis
    ]
    zero_row = not others or not (midpoint or interior)

    def rows(lo: int, hi: int) -> np.ndarray:
        a = table_sums(others, max(lo, int(zero_row)), hi)
        r = np.sqrt(a * (a + 4.0))
        half = np.tanh(m * np.arcsinh(0.5 * np.sqrt(a)))  # tanh(M theta / 2)
        if midpoint:
            return m * half / r
        row = m / (r * half)
        return row - 1.0 / a if interior else row

    acc = reduce_blocks(math.prod(t.size for t in others), rows, threads)
    if zero_row:
        acc.add(m * m / 4.0 if midpoint else (m * m - 1) / 12.0)
    eval_eps = ROW_EVAL_EPS * (3.0 if interior else 1.0)
    return acc.value, acc.err_bound + eval_eps * EPS * acc.abs_sum
