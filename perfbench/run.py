"""Benchmark entry point for gridres.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts fresh worker processes (with one BLAS thread), checks every output
of every operation against references.py, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread in every process: otherwise OpenBLAS starts its own
# threads inside the dense solves and eigvalsh. Workers inherit it.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import numpy as np  # noqa: E402

import references as ref  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedTrace  # noqa: E402

# Fresh processes that only set up, half before the measuring worker and
# half after it, so that they see two stretches of machine speed; setup_s
# is the median over them.
SETUP_PROBES = 16
WORKER_TIMEOUT_S = 170
TORUS_REL_TOL = 1e-11  # closed-form reference against the spectral sum
DENSE_REL_TOL = 1e-8  # LAPACK or exact reference against rave / the oracle


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def run_worker(args: argparse.Namespace, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(args: argparse.Namespace, count: int) -> list[float]:
    """Set-up times of fresh processes, scaled by probes run just before and after each.

    Importing is interpreter work, so the interpreter probe scales it.
    """
    speed = SpeedTrace("interpreter")
    times = []
    for _ in range(count):
        speed.sample()
        start = time.perf_counter()
        setup_s = run_worker(args, "--setup-only")["setup_s"]
        end = time.perf_counter()
        speed.sample()
        times.append(setup_s * speed.factor(start, end))
    return times


def _close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * abs(expected)


class Checker:
    """Checks one workload's outputs; every problem found is kept as a line."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.problems: list[str] = []
        self._pairs: dict[tuple, np.ndarray] = {}

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def pair_resistances(self, graph: tuple) -> np.ndarray:
        if graph not in self._pairs:
            self._pairs[graph] = ref.pair_resistances(graph)
        return self._pairs[graph]

    def family_value(self, family: tuple) -> float:
        kind = family[0]
        if kind == "ring":
            return float(ref.ring_exact(family[1]))
        if kind == "hypercube":
            return float(ref.hypercube_exact(family[1]))
        if kind == "torus":
            return ref.torus_rave(family[1])
        return ref.spectral_rave(family)

    def check(self, outputs: list[list]) -> None:
        first = outputs[0]
        for r, round_out in enumerate(outputs[1:], start=1):
            for op, out, out0 in zip(self.workload.ops, round_out, first):
                self.expect(out is None or out0 is None or out == out0,
                            f"{op.id}: round {r} output differs from round 0")
        done = [(op, out) for op, out in zip(self.workload.ops, first) if out is not None]
        for op, out in done:
            getattr(self, f"check_{op.kind}")(op, out)
        self.check_torus_limits(done)
        self.check_foster(done)

    def check_rave_torus(self, op, out) -> None:
        expected = ref.torus_rave(op.args[0])
        self.expect(_close(out[0], expected, TORUS_REL_TOL), f"{op.id}: {out[0]!r} != reference {expected!r}")

    def check_torus_limits(self, done) -> None:
        """Equal-sided d >= 3 tori: inside [1/(4d), T3 upper] and nearer I_d as M grows."""
        by_d: dict[int, list[tuple[int, float]]] = {}
        for op, out in done:
            dims = op.args[0] if op.kind == "rave_torus" else ()
            if len(dims) >= 3 and len(set(dims)) == 1:
                m, d = dims[0], len(dims)
                self.expect(1.0 / (4 * d) <= out[0] <= ref.torusd_upper(m, d), f"{op.id}: outside the T3 bounds")
                by_d.setdefault(d, []).append((m, out[0]))
        for d, points in by_d.items():
            gaps = [abs(v - ref.CONTINUUM[d]) for _, v in sorted(points)]
            self.expect(all(a > b for a, b in zip(gaps, gaps[1:])), f"d={d}: tori do not approach I_{d}")

    def check_estimate(self, op, out) -> None:
        d = op.args[0]
        value, err = out
        self.expect(abs(value - ref.CONTINUUM[d]) <= err, f"{op.id}: band {value!r} +- {err!r} misses I_{d}")

    def check_interior_sum(self, op, out) -> None:
        m, d = op.args
        expected = ref.interior_sum(m, d)
        self.expect(_close(out, expected, TORUS_REL_TOL), f"{op.id}: {out!r} != reference {expected!r}")
        self.expect(out <= ref.CONTINUUM[d], f"{op.id}: interior sum exceeds I_{d}")

    def check_sweep(self, op, out) -> None:
        code, lines = out
        self.expect(code == 0, f"{op.id}: exit code {code}")
        self.expect(lines[0] == "family,d,dims,N,rave,lower,upper,method", f"{op.id}: CSV header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        self.expect([int(r[2].split("x")[0]) for r in rows] == list(op.args[0]), f"{op.id}: rows {lines[1:]}")
        for fam, d, dims, n, rave, lower, upper, method in rows:
            m1, m2 = map(int, dims.split("x"))
            value = float(rave)
            self.expect(_close(value, ref.torus_rave((m1, m2)), TORUS_REL_TOL), f"{op.id}: {dims} value {rave}")
            self.expect(float(lower) <= value <= float(upper), f"{op.id}: {dims} outside [{lower}, {upper}]")

    def check_rave(self, op, out) -> None:
        expected = self.family_value(op.args[0])
        self.expect(_close(out[0], expected, DENSE_REL_TOL), f"{op.id}: {out[0]!r} != reference {expected!r}")

    check_oracle = check_rave

    def check_pairwise(self, op, out) -> None:
        graph, u, v = op.args
        expected = self.pair_resistances(graph)[u, v]
        self.expect(_close(out, expected, DENSE_REL_TOL), f"{op.id}: {out!r} != reference {expected!r}")

    def check_foster(self, done) -> None:
        """Foster's theorem: effective resistances over all edges sum to N - 1."""
        sums: dict[tuple, list[float]] = {}
        for op, out in done:
            if op.kind == "pairwise":
                sums.setdefault(op.args[0], []).append(out)
        for graph, values in sums.items():
            if len(values) == len(graph[2]):
                n = graph[1]
                self.expect(_close(math.fsum(values), n - 1, DENSE_REL_TOL), f"graph{n}: Foster sum {math.fsum(values)!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = spec["per_layer" if args.trace else "end_to_end"]

    probes = 0 if args.trace else SETUP_PROBES // 2
    setups = setup_times(args, probes)
    report = run_worker(args)
    setups += setup_times(args, probes)
    workload = workloads.build(args.workload, args.seed)
    checker = Checker(workload)
    checker.check(report["outputs"])
    for problem in checker.problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    for op_id, error in report["errors"].items():
        print(f"OPERATION FAILED {op_id}: {error}", file=sys.stderr)

    largest = [i for i, op in enumerate(workload.ops) if op.id in workload.largest]
    if args.trace:
        values = dict(report["layers"], **{"traced.wall_s": statistics.median(report["round_s"])})
    else:
        values = {
            "wall_s": statistics.median(report["round_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
            "op_p50_s": statistics.median(t for times in report["op_s"] for t in times),
            "largest_op_s": statistics.median(times[i] for times in report["op_s"] for i in largest),
        }
    rounds = len(report["round_s"])
    print(json.dumps({
        "machine": machine(), "rounds": rounds, "operations_per_round": len(workload.ops),
        "raw_wall_s": statistics.median(report["raw_round_s"]),
        "speed_factor": statistics.median(report["round_factor"]),
    }))
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": rounds * len(workload.ops),
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
