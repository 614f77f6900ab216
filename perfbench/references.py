"""Reference values for the benchmark, computed apart from gridres.

Nothing here imports gridres. The references use other formulas and other
code than the program does:

- tori: the last axis is summed in closed form, so only the other axes
  are enumerated;
- the continuum integral: Watson's Gamma-function value for d = 3 and
  constants recomputed by ``continuum_constants.py`` for the other d;
- small graphs: LAPACK's ``eigvalsh`` and pseudo-inverse on a Laplacian
  assembled here, and exact rationals for rings and hypercubes.

Run ``python3 perfbench/references.py`` for the self-test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# I_d = integral over [0,1]^d of 1 / (2d - 2 sum cos(2 pi x_i))
#     = integral_0^inf (exp(-2t) I0(2t))^d dt,
# recomputed at 20 digits by continuum_constants.py.
CONTINUUM = {
    3: 0.25273100985863173,
    4: 0.15493339023106021,
    5: 0.11563081248402312,
    6: 0.093080281102222654,
    7: 0.078136165399132,
    8: 0.067415438251057847,
    10: 0.052977187394413054,
}


def watson_half() -> float:
    """I_3 = W/2 with W = sqrt(6)/(96 pi^3) G(1/24) G(5/24) G(7/24) G(11/24)."""
    gammas = math.prod(math.gamma(k / 24.0) for k in (1, 5, 7, 11))
    return math.sqrt(6.0) / (96.0 * math.pi**3) * gammas / 2.0


def axis_table(m: int) -> np.ndarray:
    """Laplacian eigenvalues of the m-ring, 4 sin^2(pi k / m) for k < m."""
    return 4.0 * np.sin(np.pi * np.arange(m) / m) ** 2


def _row_sums(a: np.ndarray, m: int) -> np.ndarray:
    """sum_{k<m} 1 / (a + 4 sin^2(pi k / m)) for a > 0, in closed form.

    With a + 2 = 2 cosh(theta) the sum is m / (2 sinh(theta) tanh(m theta / 2)).
    """
    theta = 2.0 * np.arcsinh(np.sqrt(a) / 2.0)
    return m / (np.sqrt(a * (a + 4.0)) * np.tanh(m * theta / 2.0))


def _other_axes(sides: list[int]) -> np.ndarray:
    """All sums of one eigenvalue per side, the all-zero combination first."""
    a = np.zeros(1)
    for side in sides:
        a = (a[:, None] + axis_table(side)[None, :]).ravel()
    return a


def torus_rave(dims: tuple[int, ...]) -> float:
    """Average resistance of a torus, (1/N) sum over nonzero eigenvalues of 1/lambda.

    The longest side is summed in closed form; the row through the null
    mode is sum_{k=1}^{m-1} 1/(4 sin^2(pi k/m)) = (m^2 - 1)/12.
    """
    sides = sorted(dims)
    m = sides.pop()
    a = _other_axes(sides)
    total = (m * m - 1) / 12.0 + math.fsum(_row_sums(a[1:], m))
    return total / math.prod(dims)


def interior_sum(m: int, d: int) -> float:
    """(1/m^d) sum over h in [1, m-1]^d of 1/lambda_h, last axis in closed form."""
    a = _other_axes([m] * (d - 1))
    keep = np.ones(1, dtype=bool)
    for _ in range(d - 1):
        keep = (keep[:, None] & (np.arange(m) > 0)[None, :]).ravel()
    a = a[keep]
    return math.fsum(_row_sums(a, m) - 1.0 / a) / float(m) ** d


def torusd_upper(m: int, d: int) -> float:
    """The paper's upper bound for the equal-sided d-torus (d >= 3, m >= 4)."""
    return (8.0 / (d + 1)) * (1.0 + 1.0 / m) ** (d + 1) + (d / (4.0 * float(m) ** (d - 2))) * (
        1.0 / 3.0 + (d - 1) * math.log(m) / math.pi
    )


def ring_exact(m: int) -> Fraction:
    return Fraction(m, 12) - Fraction(1, 12 * m)


def hypercube_exact(d: int) -> Fraction:
    """2^-d sum_{k=1..d} C(d, k) / (2k), exactly."""
    return sum((Fraction(math.comb(d, k), 2 * k) for k in range(1, d + 1)), Fraction(0)) / 2**d


def family_edges(family: tuple) -> list[tuple[int, int]]:
    """Edge list of a plain family descriptor.

    Descriptors: ("ring", m), ("torus", dims), ("hypercube", d) and
    ("graph", n, edges). Torus nodes are numbered in mixed radix with the
    first side fastest, which is a different numbering from the program's.
    """
    kind = family[0]
    if kind == "ring":
        m = family[1]
        return [(i, (i + 1) % m) for i in range(m)]
    if kind == "torus":
        dims = family[1]
        coords = list(itertools.product(*(range(m) for m in reversed(dims))))
        index = {c: i for i, c in enumerate(coords)}
        edges = []
        for c, i in index.items():
            for axis, m in enumerate(reversed(dims)):
                step = list(c)
                step[axis] = (step[axis] + 1) % m
                edges.append((i, index[tuple(step)]))
        return edges
    if kind == "hypercube":
        d = family[1]
        return [(v, v | (1 << j)) for v in range(2**d) for j in range(d) if not v >> j & 1]
    if kind == "graph":
        return list(family[2])
    raise ValueError(f"unknown family {kind!r}")


def node_count(family: tuple) -> int:
    kind = family[0]
    if kind == "torus":
        return math.prod(family[1])
    if kind == "hypercube":
        return 2 ** family[1]
    return family[1]


def laplacian(family: tuple) -> np.ndarray:
    n = node_count(family)
    lap = np.zeros((n, n))
    for u, v in family_edges(family):
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    return lap


def spectral_rave(family: tuple) -> float:
    """(1/N) sum 1/lambda over the nonzero eigenvalues from LAPACK's eigvalsh."""
    lam = np.linalg.eigvalsh(laplacian(family))
    return math.fsum(1.0 / lam[1:]) / lam.size


def pair_resistances(family: tuple) -> np.ndarray:
    """All effective resistances R_uv = P_uu + P_vv - 2 P_uv, P the pseudo-inverse."""
    p = np.linalg.pinv(laplacian(family), hermitian=True)
    diag = np.diag(p)
    return diag[:, None] + diag[None, :] - 2.0 * p


def _expect(ok: bool, what: object) -> None:
    if not ok:
        raise AssertionError(f"reference self-test failed: {what}")


def self_test() -> None:
    """Check the references against direct sums, Foster's theorem and Watson."""
    shapes = [(m1, m2) for m1 in range(3, 8) for m2 in range(3, 10)]
    shapes += [(3, 3, 3), (3, 4, 5), (4, 4, 4), (5, 3, 6)]
    for dims in shapes:
        lam = _other_axes(list(dims))
        direct = math.fsum(1.0 / lam[1:]) / lam.size
        closed = torus_rave(dims)
        _expect(abs(closed - direct) <= 1e-13 * direct, (dims, closed, direct))
        if len(dims) == 2 and min(dims) >= 3:
            _expect(abs(spectral_rave(("torus", dims)) - direct) <= 1e-12 * direct, dims)
    for m, d in ((5, 3), (8, 3), (6, 4)):
        lam = _other_axes([m] * d)
        idx = np.array(list(itertools.product(range(m), repeat=d)))
        interior = np.all(idx > 0, axis=1)
        direct = math.fsum(1.0 / lam[interior]) / float(m) ** d
        _expect(abs(interior_sum(m, d) - direct) <= 1e-13 * direct, (m, d))
    for m in (3, 7, 1000):
        ring = float(ring_exact(m))
        _expect(abs(torus_rave((m,)) - ring) <= 1e-13 * ring, ("ring", m))
    for d in range(1, 6):
        cube = float(hypercube_exact(d))
        _expect(abs(spectral_rave(("hypercube", d)) - cube) <= 1e-13, ("hypercube", d))
    # Foster's theorem on a hand-built graph: a 4-cycle with one chord plus
    # a pendant node. The resistances over the edges sum to N - 1 = 4.
    graph = ("graph", 5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)])
    reff = pair_resistances(graph)
    _expect(abs(sum(reff[u, v] for u, v in graph[2]) - 4.0) <= 1e-12, "Foster")
    _expect(abs(reff[3, 4] - 1.0) <= 1e-12, "bridge edge")
    # The chord lies in parallel with two 2-ohm paths: 1 / (1 + 1/2 + 1/2).
    _expect(abs(reff[0, 2] - 0.5) <= 1e-12, "chord")
    _expect(abs(watson_half() - CONTINUUM[3]) <= 1e-12 * CONTINUUM[3], "Watson W/2")
    print(f"references self-test passed: {len(shapes)} tori, W/2 = {watson_half():.17g}")


if __name__ == "__main__":
    self_test()
