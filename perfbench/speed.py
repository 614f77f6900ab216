"""Machine-speed probes, sampled between timed operations.

The machine this benchmark was built on shares its CPUs and memory with
other tenants. The same operations ran up to twice as slow for stretches
of 10-20 s, with no steal time. A probe is a fixed kernel written here,
apart from gridres, and timed at most every 0.1 s of a run.
Every reported time is scaled by the probe's reference time over the
probe times around it: it is given at the machine speed at which the
probe takes its reference time. Two probes match the two kinds of work in
gridres:

- ``interpreter``: plane rotations on the rows of a 32 x 32 matrix, the
  shape of the Jacobi and Cholesky loops;
- ``mixed``: the same rotations after block-wise gathers, reciprocals and
  sums over a 4 MiB table, the shape of the lattice-sum kernel and its
  row-by-row compensated reduction.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Typical probe times on this machine, rounded.
REFERENCE_S = {"interpreter": 0.004, "mixed": 0.012}
_SIDE = 2**19
_BLOCK = 65536
_ROWS = 32
EVERY_S = 0.1  # least time between two probes


class SpeedTrace:
    """Probe times sampled at most every EVERY_S seconds of a run."""

    def __init__(self, kind: str) -> None:
        self.reference_s = REFERENCE_S[kind]
        self._probe = getattr(self, f"_{kind}")
        if kind == "mixed":
            self._table = 1.0 + 4.0 * np.sin(np.pi * np.arange(_SIDE) / _SIDE) ** 2
        self._matrix = np.random.default_rng(0).random((_ROWS, _ROWS))
        self.at: list[float] = []
        self.probe_s: list[float] = []

    def _mixed(self) -> None:
        self._memory()
        self._interpreter()

    def _memory(self) -> None:
        total = 0.0
        for lo in range(0, _SIDE, _BLOCK):
            idx = np.arange(lo, lo + _BLOCK)
            total += float(np.sum(1.0 / (self._table[idx % _SIDE] + self._table[(idx // 4096) % 128])))

    def _interpreter(self) -> None:
        a = self._matrix.copy()
        for p in range(_ROWS - 1):
            for q in range(p + 1, _ROWS):
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = 0.8 * row_p - 0.6 * row_q
                a[q, :] = 0.6 * row_p + 0.8 * row_q

    def sample(self) -> None:
        start = time.perf_counter()
        self._probe()
        end = time.perf_counter()
        self.at.append(end)
        self.probe_s.append(end - start)

    def due(self) -> None:
        """Sample if the last sample is older than EVERY_S."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference time over the mean probe time from just before start to just after end."""
        lo = max(bisect.bisect_right(self.at, start) - 1, 0)
        hi = bisect.bisect_left(self.at, end) + 1
        return self.reference_s / statistics.fmean(self.probe_s[lo:hi])
