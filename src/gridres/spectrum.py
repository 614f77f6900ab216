"""Closed-form Laplacian spectra of tori and hypercubes, and spectral averaging.

Torus eigenvalues come from the product-of-cycles structure: for an index
vector h the eigenvalue is the sum over dimensions of 2 - 2 cos(2 pi h_i / M_i).
Hypercube eigenvalues are 2m with binomial multiplicities. Streams never
materialize O(N) storage; consumers pull fixed-size index blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .eigen import null_mode_count
from .errors import DisconnectedSpectrum, Overflow
from .families import Torus, _row_major_strides
from .summation import BASE_BLOCK, CompensatedSum, block_sum, reduce_blocks

# Largest dimension whose binomial multiplicities all stay in the exact
# 64-bit integer range.
MAX_EXACT_HYPERCUBE = 63


@dataclass(frozen=True)
class ResistanceResult:
    """A computed average-resistance value plus how it was obtained."""

    value: float
    # closed_form | spectral (closed-form or Jacobi eigenvalues) |
    # green_trace (explicit graphs, Cholesky; err_bound covers the two final
    # sums only) | oracle_definition | recursion
    method: str
    terms: int
    err_bound: float


def side_contribution_table(m: int) -> np.ndarray:
    """Per-dimension eigenvalue contributions c[k] = 2 - 2 cos(2 pi k / m).

    Evaluated as 4 sin^2(pi k / m) on the reduced rational argument k/m,
    which keeps full relative accuracy for small angles, then mirrored so
    c[k] == c[m - k] holds bit-exactly.
    """
    half = m // 2
    k = np.arange(half + 1, dtype=np.float64)
    s = np.sin(np.pi * (k / m))
    c = np.empty(m)
    c[: half + 1] = 4.0 * s * s
    c[half + 1 :] = c[1 : m - half][::-1]
    c[0] = 0.0
    return c


class SpectrumStream:
    """Lazily enumerated multiset of Laplacian eigenvalues with multiplicities.

    Exactly ``zero_multiplicity`` of the emitted eigenvalues are null modes
    (1 for any connected graph). Torus streams enumerate index vectors in
    row-major order and support consumption in disjoint index blocks.
    """

    def __init__(
        self,
        count: int,
        zero_multiplicity: int,
        kind: str,
        dims: tuple[int, ...] = (),
        mult_pairs: tuple[tuple[float, int], ...] = (),
        nonzero_values: np.ndarray | None = None,
        all_values: np.ndarray | None = None,
    ) -> None:
        self.count = count
        self.zero_multiplicity = zero_multiplicity
        self.kind = kind
        self.dims = dims
        self.mult_pairs = mult_pairs
        self._nonzero_values = nonzero_values
        self._all_values = all_values
        if kind == "torus":
            self._tables = [side_contribution_table(m) for m in dims]
            self._strides = _row_major_strides(dims)

    def pairs(self) -> Iterator[tuple[float, int]]:
        """Yield (eigenvalue, multiplicity), the zero mode included."""
        if self.kind == "torus":
            for lo in range(0, self.count, BASE_BLOCK):
                for lam in self.lambda_block(lo, min(lo + BASE_BLOCK, self.count)):
                    yield float(lam), 1
        elif self.kind == "hypercube":
            yield from self.mult_pairs
        else:
            for lam in self._all_values:
                yield float(lam), 1

    def lambda_block(self, lo: int, hi: int) -> np.ndarray:
        """Torus eigenvalues for row-major flat indices [lo, hi)."""
        if self.kind != "torus":
            raise ValueError("lambda_block is only defined for torus streams")
        idx = np.arange(lo, hi)
        lam = np.zeros(hi - lo)
        for table, stride, m in zip(self._tables, self._strides, self.dims):
            lam += table[(idx // stride) % m]
        return lam

    def inverse_terms(self, lo: int, hi: int) -> np.ndarray:
        """Summands multiplicity / eigenvalue for one nonzero-index block.

        The null mode is excluded structurally (by its index), never by a
        numeric tolerance.
        """
        if self.kind == "torus":
            lam = self.lambda_block(lo, hi)
            if lo == 0:
                lam = lam[1:]
            return 1.0 / lam
        if self.kind == "hypercube":
            data = np.array(
                [mult / lam for lam, mult in self.mult_pairs[lo:hi] if lam > 0.0]
            )
            return data
        return 1.0 / self._nonzero_values[lo:hi]

    def term_count(self) -> int:
        """Number of index entries feeding inverse_terms (zero mode excluded)."""
        if self.kind == "torus":
            return self.count
        if self.kind == "hypercube":
            return len(self.mult_pairs)
        return int(self._nonzero_values.size)

    def eigenvalue_sum(self, threads: int = 1) -> float:
        """Sum of multiplicity * eigenvalue; equals twice the edge count."""
        if self.kind == "torus":
            return reduce_blocks(self.count, self.lambda_block, threads).value
        acc = CompensatedSum()
        for lam, mult in self.pairs():
            acc.add(mult * lam)
        return acc.value


def torus_spectrum(dims: list[int] | tuple[int, ...]) -> SpectrumStream:
    """Spectrum stream of the toroidal grid with the given side lengths."""
    family = Torus(tuple(dims))  # validates the descriptor
    return SpectrumStream(family.node_count(), 1, "torus", dims=family.dims)


def hypercube_spectrum(d: int) -> SpectrumStream:
    """Spectrum stream of the d-dimensional hypercube: (2m, C(d, m)).

    Multiplicities are exact integers up to d = 63; beyond that they leave
    the exact 64-bit range and the request is refused.
    """
    if d < 0:
        raise Overflow(f"hypercube dimension must be >= 0, got {d}")
    if d > MAX_EXACT_HYPERCUBE:
        raise Overflow(
            f"binomial multiplicities for d={d} exceed the exact integer range "
            f"(supported up to d={MAX_EXACT_HYPERCUBE})"
        )
    pairs = tuple((2.0 * m, math.comb(d, m)) for m in range(d + 1))
    return SpectrumStream(2**d, 1, "hypercube", mult_pairs=pairs)


def stream_from_eigenvalues(eigenvalues: np.ndarray) -> SpectrumStream:
    """Wrap a dense eigensolve result as a stream.

    Null modes are identified by the |lambda| <= 1e-9 * lambda_max rule;
    connectivity is judged by the caller via zero_multiplicity.
    """
    values = np.sort(np.asarray(eigenvalues, dtype=np.float64))
    zeros = null_mode_count(values)
    return SpectrumStream(
        int(values.size),
        zeros,
        "values",
        nonzero_values=values[zeros:],
        all_values=values,
    )


def spectral_rave(stream: SpectrumStream, threads: int = 1) -> ResistanceResult:
    """Average effective resistance from a spectrum: (1/N) sum mult/lambda.

    Uses compensated summation over the stream's fixed block partition;
    partials merge in block order, so the value is bit-identical for any
    worker count.
    """
    if stream.zero_multiplicity != 1:
        raise DisconnectedSpectrum(
            f"{stream.zero_multiplicity} zero eigenvalues in the stream; expected 1"
        )
    n = stream.count
    if n == 1:
        return ResistanceResult(0.0, "spectral", 0, 0.0)
    if stream.kind == "torus":
        acc = reduce_blocks(stream.term_count(), stream.inverse_terms, threads)
        terms = n - 1
    else:
        acc = block_sum(stream.inverse_terms(0, stream.term_count()))
        terms = acc.count
    return ResistanceResult(acc.value / n, "spectral", terms, acc.err_bound / n)
