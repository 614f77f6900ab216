"""Recompute the stored continuum constants I_d in references.py with mpmath.

I_d = integral_0^inf (exp(-2t) I0(2t))^d dt, which equals the integral of
1 / (2d - 2 sum cos(2 pi x_i)) over the unit cube. Only this command uses
mpmath; benchmark runs read the stored constants.

    python3 perfbench/continuum_constants.py
"""

from __future__ import annotations

import mpmath

from references import CONTINUUM, watson_half

DIGITS = 20


def continuum_integral(d: int) -> mpmath.mpf:
    f = lambda t: (mpmath.exp(-2 * t) * mpmath.besseli(0, 2 * t)) ** d  # noqa: E731
    return mpmath.quad(f, [0, 1, 10, 100, 1000, mpmath.inf])


def main() -> int:
    mpmath.mp.dps = DIGITS
    worst = 0.0
    for d, stored in CONTINUUM.items():
        value = continuum_integral(d)
        rel = float(abs(value - stored) / value)
        worst = max(worst, rel)
        print(f"I_{d} = {mpmath.nstr(value, 17)}  stored {stored!r}  rel {rel:.2e}")
    rel3 = abs(watson_half() - CONTINUUM[3]) / CONTINUUM[3]
    print(f"W/2 = {watson_half()!r}  rel to stored I_3 {rel3:.2e}")
    return 0 if worst <= 1e-15 else 1


if __name__ == "__main__":
    raise SystemExit(main())
