"""One benchmark process: import gridres, build a workload, time it, report JSON.

Started by run.py in a fresh interpreter; not meant to be run by hand. The
last line of standard output is one JSON object. With --setup-only it holds
the unscaled set-up time. Otherwise it holds the per-round and
per-operation times (scaled to the reference machine speed of speed.py),
each operation's outputs and, when traced, the per-layer metrics. Outputs
are checked by run.py, not here.
"""

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(SRC))


def family(gr, spec: tuple):
    kind = spec[0]
    if kind == "ring":
        return gr.Ring(spec[1])
    if kind == "torus":
        return gr.Torus(spec[1])
    if kind == "hypercube":
        return gr.Hypercube(spec[1])
    return gr.Explicit(spec[1], spec[2])


def make_call(gr, op, threads: int, families: dict, sweep_csv: Path):
    """A no-argument callable that performs one operation."""
    a = op.args
    if op.kind == "rave_torus":
        return lambda: gr.rave_torus(a[0], threads=threads)
    if op.kind == "estimate":
        d, method, budget, seed = a
        return lambda: gr.estimate_integral(d, method=method, budget=budget, seed=seed, threads=threads)
    if op.kind == "interior_sum":
        return lambda: gr.interior_sum(a[0], a[1], threads=threads)
    if op.kind == "sweep":
        argv = ["sweep", "--family", "torus2", "--m", ",".join(map(str, a[0])),
                "--out", str(sweep_csv), "--threads", str(threads)]
        return lambda: gr.cli.main(argv)
    g = families.setdefault(a[0], family(gr, a[0]))
    if op.kind == "rave":
        return lambda: gr.rave(g, threads=threads)
    if op.kind == "oracle":
        return lambda: gr.rave_definition_oracle(g)
    if op.kind == "pairwise":
        return lambda: gr.pairwise_reff(g, a[1], a[2])
    raise ValueError(f"unknown operation kind {op.kind!r}")


def output(op, result, sweep_csv: Path):
    """The JSON-able part of an operation's result that the checks read."""
    if op.kind in ("pairwise", "interior_sum"):
        return result
    if op.kind == "estimate":
        return [result.value, result.err]
    if op.kind == "sweep":
        lines = sweep_csv.read_text().splitlines()
        return [result, lines]
    return [result.value, result.terms, result.err_bound]


def warm_up(gr, workload, threads: int, sweep_csv: Path) -> None:
    """First calls of each route on tiny inputs, so no timed operation pays them."""
    kinds = {op.kind for op in workload.ops}
    if "rave_torus" in kinds:
        gr.rave_torus((8, 8), threads=threads)
    if "sweep" in kinds:
        gr.cli.main(["sweep", "--family", "torus2", "--m", "4", "--out", str(sweep_csv), "--threads", "1"])
    if "estimate" in kinds:
        for method in ("riemann_refined", "monte_carlo"):
            gr.estimate_integral(3, method=method, budget=10**4, threads=threads)
        gr.interior_sum(4, 3, threads=threads)
    if "oracle" in kinds:
        g = gr.Explicit(3, [(0, 1), (1, 2)])
        gr.rave(g, threads=threads)
        gr.rave_definition_oracle(g)
        gr.pairwise_reff(g, 0, 2)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()  # set-up is timed from here
    import gridres as gr
    import gridres.cli  # noqa: F401  (the sweep operation calls gridres.cli.main)

    if Path(gr.__file__).resolve().parent != SRC / "gridres":
        print(f"gridres imported from {gr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from speed import SpeedTrace

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(gr)
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        sweep_csv = Path(tmp) / "sweep.csv"
        workload = workloads.build(args.workload, args.seed)
        families: dict = {}
        calls = [make_call(gr, op, workload.threads, families, sweep_csv) for op in workload.ops]
        warm_up(gr, workload, workload.threads, sweep_csv)
        if args.setup_only:
            print(json.dumps({"setup_s": time.perf_counter() - t0}))
            return 0
        speed = SpeedTrace(workload.probe)
        if tracer is not None:
            tracer.spans.clear()

        rounds, spans, outputs, errors = [], [], [], {}
        begin = time.perf_counter()
        speed.sample()
        while True:
            results, times = [], []
            start = time.perf_counter()
            for i, call in enumerate(calls):
                t = time.perf_counter()
                try:
                    results.append(call())
                except Exception as exc:  # counted as a failed operation
                    results.append(None)
                    errors.setdefault(workload.ops[i].id, f"{type(exc).__name__}: {exc}")
                times.append((t, time.perf_counter()))
                speed.due()
            end = time.perf_counter()
            speed.sample()
            rounds.append((start, end))
            spans.append(times)
            outputs.append([
                None if r is None else output(op, r, sweep_csv) for op, r in zip(workload.ops, results)
            ])
            if end - begin + statistics.median(e - s for s, e in rounds) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    op_s = [[(e - t) * speed.factor(t, e) for t, e in times] for times in spans]
    report = {
        "round_s": [sum(times) for times in op_s],
        "raw_round_s": [e - s for s, e in rounds],
        "round_factor": [speed.factor(s, e) for s, e in rounds],
        "op_s": op_s,
        "outputs": outputs,
        "errors": errors,
        "failed": sum(r is None for round_out in outputs for r in round_out),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        report["layers"] = tracer.per_round(rounds, report["round_factor"])
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json", rounds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
