"""The benchmark's workloads: plain operation lists made from a seed.

Nothing here imports gridres or numpy. Families are plain tuples —
("ring", m), ("torus", dims), ("hypercube", d), ("graph", n, edges) — so
the worker can turn them into gridres descriptors and the checker can feed
them to the references. The seed permutes torus axes, draws the random
graphs' edges and fixes the order of the operations; the amount of work is
the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Monte Carlo uses the package's default seed whatever --seed is: its
# "3 sigma" band does not cover I_3 on every seed (see CHANGES.md).
MC_SEED = 42


@dataclass(frozen=True)
class Op:
    id: str
    kind: str  # rave_torus | estimate | interior_sum | sweep | rave | oracle | pairwise
    args: tuple


@dataclass(frozen=True)
class Workload:
    threads: int
    ops: tuple[Op, ...]
    largest: tuple[str, ...]  # ids of the designated largest operation (its samples)
    probe: str  # the speed.py probe whose kind of work dominates the workload


def _torus_op(rng: random.Random, dims: tuple[int, ...]) -> Op:
    dims = list(dims)
    rng.shuffle(dims)
    dims = tuple(dims)
    return Op("rave_torus:" + "x".join(map(str, dims)), "rave_torus", (dims,))


def torus_aspect(rng: random.Random) -> Workload:
    shapes = [(4, 2**k) for k in range(10, 21, 2)]  # S1: 4 x N/4
    shapes += [(m, m * m) for m in (16, 32, 64, 128, 160)]  # S2: N^(1/3) x N^(2/3)
    shapes += [(k, 4 * k) for k in (32, 64, 128, 256, 512, 1024)]  # S3: ratio 4
    shapes += [(m, m) for m in (64, 128, 256, 512, 1024)]
    shapes += [(m,) for m in (10**3, 10**4, 10**5, 10**6)]  # rings
    ops = [_torus_op(rng, dims) for dims in shapes]
    ops.append(Op("sweep:torus2", "sweep", ((16, 32, 64, 128, 256),)))
    rng.shuffle(ops)
    largest = next(op.id for op in ops if sorted(op.args[0]) == [4, 2**20])
    return Workload(1, tuple(ops), (largest,), "mixed")


def continuum_limit(rng: random.Random) -> Workload:
    sides = {3: (64, 96, 128), 4: (16, 24, 32), 5: (8, 12, 16), 6: (6, 8, 10), 7: (4, 6), 8: (4, 6), 10: (4,)}
    ops = [_torus_op(rng, (m,) * d) for d, ms in sides.items() for m in ms]
    ops += [Op(f"interior_sum:M{m}:d{d}", "interior_sum", (m, d)) for d in (3, 4) for m in (8, 16, 32)]
    budgets = {3: 2 * 10**6, 4: 2 * 10**6, 5: 2 * 10**6, 8: 4 * 10**6}
    for d, budget in budgets.items():
        for method in ("riemann_refined", "monte_carlo"):
            ops.append(Op(f"estimate:{method}:d{d}", "estimate", (d, method, budget, MC_SEED)))
    rng.shuffle(ops)
    return Workload(2, tuple(ops), ("estimate:monte_carlo:d8",), "mixed")


def random_connected_graph(rng: random.Random, n: int) -> tuple:
    """A random spanning tree plus n // 2 further distinct edges, where they fit."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    extra = min(n // 2, n * (n - 1) // 2 - len(edges))
    while extra:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges.add((u, v))
            extra -= 1
    return ("graph", n, tuple(sorted(edges)))


def small_families(rng: random.Random) -> Workload:
    families = [("ring", m) for m in range(3, 21)]
    for m1 in range(3, 15):
        for m2 in range(m1, 15):
            if m1 * m2 <= 200:
                families.append(("torus", tuple(rng.sample((m1, m2), 2))))
    for m1 in range(3, 7):
        for m2 in range(m1, 7):
            for m3 in range(m2, 9):
                if m1 * m2 * m3 <= 200:
                    families.append(("torus", tuple(rng.sample((m1, m2, m3), 3))))
    families += [("hypercube", d) for d in range(1, 8)]
    # Three graphs of the largest size, so largest_op_s has three samples a round.
    graphs = [random_connected_graph(rng, n) for n in (2, 4, 8, 16, 24, 32, 48, 64, 80, 100, 100, 100)]
    families += graphs

    def tag(f: tuple) -> str:
        if f[0] == "graph":
            return f"graph{graphs.index(f)}n{f[1]}"
        if f[0] == "torus":
            return "torus" + "x".join(map(str, f[1]))
        return f"{f[0]}{f[1]}"

    ops = [Op(f"{kind}:{tag(f)}", kind, (f,)) for f in families for kind in ("rave", "oracle")]
    ops += [Op(f"pairwise:{tag(g)}:{u}-{v}", "pairwise", (g, u, v)) for g in graphs for u, v in g[2]]
    rng.shuffle(ops)
    return Workload(1, tuple(ops), tuple(f"rave:{tag(g)}" for g in graphs[-3:]), "interpreter")


WORKLOADS = {"torus_aspect": torus_aspect, "continuum_limit": continuum_limit, "small_families": small_families}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(seed))
