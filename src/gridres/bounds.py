"""Closed-form lower/upper bounds on average resistance, and sandwich verdicts.

Each bound op reports its applicability instead of raising, so parameter
sweeps stay total: an inapplicable input yields a report with
applicable=False and unset bound values. Integer arguments (M1, M2, M, d,
N and the scenario) pass ``families.require_int`` first, so a float, NaN
or bool raises InvalidFamily; c is real. A bound that leaves the float
range raises Overflow. All logarithms are natural.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from .errors import NonIntegralSides, Overflow
from .families import require_int

TAG_TORUS2 = "T2_torus2"
TAG_TORUSD = "T3_torusd"
TAG_HYPERCUBE = "T4_hypercube"
TAG_INTEGRAL = "L1_integral"
TAG_SCENARIO = {1: "S1_fixed_side", 2: "S2_power_split", 3: "S3_proportional"}

SANDWICH_SLACK = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """Bounds for one parameter point, or why they do not apply."""

    theorem: str
    params: dict[str, Any]
    applicable: bool
    reason: str = ""
    lower: float | None = None
    upper: float | None = None

    def contains(self, value: float) -> bool | None:
        """Whether value lies in [lower, upper] up to SANDWICH_SLACK; None if inapplicable."""
        if not self.applicable:
            return None
        return self.lower - SANDWICH_SLACK <= value <= self.upper + SANDWICH_SLACK


def _inapplicable(theorem: str, params: dict[str, Any], reason: str) -> BoundReport:
    return BoundReport(theorem, params, applicable=False, reason=reason)


@contextmanager
def _float_range(theorem: str) -> Iterator[None]:
    """Raise Overflow where the float arithmetic in the block overflows."""
    try:
        yield
    except OverflowError:
        raise Overflow(f"{theorem}: a bound leaves the float range") from None


def bounds_torus2(m1: int, m2: int) -> BoundReport:
    """Two-dimensional torus bounds; needs 4 <= M1 <= M2.

    Upper: log(M2)/(2 pi) + M2/(12 M1) + 1.
    Lower: the larger of the aspect-ratio branch M2/(12 M1) - 1/24 and the
    logarithmic branch log(M1)/(2 pi) - M2/(12 M1) - 1/2.
    """
    m1, m2 = require_int(m1, "M1"), require_int(m2, "M2")
    params = {"M1": m1, "M2": m2}
    if not (4 <= m1 <= m2):
        return _inapplicable(TAG_TORUS2, params, f"requires 4 <= M1 <= M2, got ({m1}, {m2})")
    with _float_range(TAG_TORUS2):
        upper = math.log(m2) / (2.0 * math.pi) + m2 / (12 * m1) + 1.0
        lower = max(torus2_lower_branches(m1, m2))
    return BoundReport(TAG_TORUS2, params, True, lower=lower, upper=upper)


def torus2_lower_branches(m1: int, m2: int) -> tuple[float, float]:
    """The two lower-bound branches (aspect-ratio first, logarithmic second)."""
    ratio = m2 / (12 * m1)  # one correctly rounded quotient of integers, for sides past the float range too
    return ratio - 1.0 / 24.0, math.log(m1) / (2.0 * math.pi) - ratio - 0.5


def bounds_torusd(m: int, d: int) -> BoundReport:
    """Equal-sided d-torus bounds; needs d >= 3 and M >= 4.

    Lower: 1/(4d). Upper: (8/(d+1)) (1 + 1/M)^(d+1) plus a finite-size
    correction d/(4 M^(d-2)) * (1/3 + (d-1) log(M)/pi).
    """
    m, d = require_int(m, "M"), require_int(d, "d")
    params = {"M": m, "d": d}
    if d < 3:
        return _inapplicable(TAG_TORUSD, params, f"requires d >= 3, got d={d}")
    if m < 4:
        return _inapplicable(TAG_TORUSD, params, f"requires M >= 4, got M={m}")
    with _float_range(TAG_TORUSD):
        lower = 1.0 / (4.0 * d)
        # M^-(d-2) underflows to 0 where M^(d-2) would overflow
        upper = (8.0 / (d + 1)) * (1.0 + 1.0 / m) ** (d + 1) + (
            d * float(m) ** -(d - 2) / 4.0
        ) * (1.0 / 3.0 + (d - 1) * math.log(m) / math.pi)
    return BoundReport(TAG_TORUSD, params, True, lower=lower, upper=upper)


def bounds_hypercube(d: int) -> BoundReport:
    """Hypercube bounds 1/(2(d+1)) .. 2/(d+1); needs d >= 2."""
    d = require_int(d, "d")
    params = {"d": d}
    if d < 2:
        return _inapplicable(TAG_HYPERCUBE, params, f"requires d >= 2, got d={d}")
    return BoundReport(
        TAG_HYPERCUBE, params, True, lower=0.5 / (d + 1), upper=2.0 / (d + 1)
    )


def bounds_integral(d: int) -> BoundReport:
    """Continuum-integral bounds 1/(4d) .. 4/d; needs d >= 3."""
    d = require_int(d, "d")
    params = {"d": d}
    if d < 3:
        return _inapplicable(TAG_INTEGRAL, params, f"requires d >= 3, got d={d}")
    return BoundReport(TAG_INTEGRAL, params, True, lower=1.0 / (4.0 * d), upper=4.0 / d)


def scenario_bounds(scenario: int, c: float, n: int) -> BoundReport:
    """Bounds for the three two-dimensional side-growth scenarios.

    Scenario 1 fixes one side at c and grows the other as N/c; scenario 2
    splits N as N^(1/c) x N^((c-1)/c); scenario 3 keeps the sides
    proportional with ratio c. c must be finite and positive and N an
    integer (InvalidFamily) of at least 1 (ValueError otherwise). Side
    lengths that fail to be integers raise NonIntegralSides; integral sides
    that miss a scenario gate produce an inapplicable report. Overflow where
    a side or bound leaves the float range, as for an N beyond it.
    """
    if (scenario := require_int(scenario, "scenario")) not in (1, 2, 3):
        raise ValueError(f"scenario must be 1, 2 or 3, got {scenario}")
    if not 0 < c < math.inf:
        raise ValueError(f"c must be finite and positive, got {c}")
    if (n := require_int(n, "N")) < 1:
        raise ValueError(f"N must be positive, got {n}")
    tag = TAG_SCENARIO[scenario]
    with _float_range(tag):
        return _scenario_bounds(scenario, tag, c, n)


def _scenario_bounds(scenario: int, tag: str, c: float, n: int) -> BoundReport:
    if scenario == 1:
        sides = (float(c), n / c)
    elif scenario == 2:
        sides = (float(n) ** (1.0 / c), float(n) ** ((c - 1.0) / c))
    else:
        sides = (math.sqrt(n / c), math.sqrt(c * n))
    m1, m2 = (_check_integral_side(tag, name, s) for name, s in zip(("M1", "M2"), sides))
    if m1 * m2 != n:
        raise NonIntegralSides(f"{tag}: sides {sides} do not multiply to N={n}")
    params = {"c": c, "N": n, "M1": m1, "M2": m2}

    if scenario == 1:
        if c < 4:
            return _inapplicable(tag, params, f"requires c >= 4, got c={c}")
        if m2 < m1:
            return _inapplicable(tag, params, f"requires c <= N/c, got sides ({m1}, {m2})")
        centre = n / (12.0 * c * c)
        lower = centre - 1.0 / 24.0
        upper = centre + math.log(n) / (2.0 * math.pi) + 1.0
    elif scenario == 2:
        if not c > 2:
            return _inapplicable(tag, params, f"requires c > 2, got c={c}")
        if min(m1, m2) < 4:
            return _inapplicable(tag, params, f"requires sides >= 4, got ({m1}, {m2})")
        centre = float(n) ** ((c - 2.0) / c) / 12.0
        lower = centre - 1.0 / 24.0
        upper = centre + ((c - 1.0) / c) * math.log(n) / (2.0 * math.pi) + 1.0
    else:
        if min(m1, m2) < 4:
            return _inapplicable(tag, params, f"requires sides >= 4, got ({m1}, {m2})")
        log_n = math.log(n) / (4.0 * math.pi)
        log_c = math.log(c) / (4.0 * math.pi)
        lower = log_n - log_c - c / 12.0 - 0.5
        upper = log_n + c / 12.0 + log_c + 1.0
    return BoundReport(tag, params, True, lower=lower, upper=upper)


def _check_integral_side(tag: str, name: str, side: float) -> int:
    rounded = round(side)
    if rounded < 1 or abs(side - rounded) > 1e-9 * max(1.0, abs(side)):
        raise NonIntegralSides(f"{tag}: side {name} = {side!r} is not an integer")
    return int(rounded)
