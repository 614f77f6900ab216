"""Alternating benchmark pairs: a base revision against the working tree.

    python3 tools/bench_pairs.py --base REV --workload W --seed S --seconds T \
        --pairs N --label X [--trace 0|1] [--out PATH]

Exports REV with ``git archive`` into a temporary directory and runs
``perfbench/run.py --trace T`` there and in the working tree, N times
each, alternating which side goes first. Writes ``BENCH_<label>.json`` at
the repository root (or PATH) with run.py's machine line, each side's
median and quartiles per metric, and the pairs the change won. With
``--trace 0`` (the default) the metrics are the end-to-end metrics of the
working tree's BENCHMARK.json, kept under ``workloads``; with ``--trace 1``
they are its per-layer metrics, kept under ``layers``. One file holds one
entry per workload and section: running another workload, or the other
trace setting, adds its entry and keeps the others. Exits 1 if any run
reports an incorrect output or a failed operation.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> str:
    """Extract the files of ``rev`` into ``dest``; return its full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def describe_working_tree() -> str:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True)
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, check=True, capture_output=True, text=True)
    return f"working tree at {head.stdout.strip()}" + (" with uncommitted changes" if dirty.stdout.strip() else "")


def run_once(root: Path, args: argparse.Namespace) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``root``: its machine line and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    *_, machine, result = proc.stdout.strip().splitlines()
    return json.loads(machine), json.loads(result)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarise(specs: list[dict], base: list[dict], change: list[dict]) -> dict:
    """Per metric: each side's median, quartiles and runs, and the pairs the change won."""
    metrics = {}
    for spec in specs:
        name = spec["name"]
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        won = sum((y < x) if spec["better"] == "lower" else (y > x) for x, y in zip(b, c))
        metrics[name] = {"unit": spec["unit"], "better": spec["better"], "base": quartiles(b),
                         "change": quartiles(c), "pairs_won": won}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: compare BENCHMARK.json's per-layer metrics from traced runs")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    runs: dict[str, list[dict]] = {"base": [], "change": []}
    machines: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        commit = export(args.base, Path(tmp))
        roots = {"base": Path(tmp), "change": ROOT}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                machine, result = run_once(roots[side], args)
                machines[side].append(machine)
                runs[side].append(result)
                print(f"pair {i + 1}/{args.pairs} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)

    ok = all(r["correct"] is True and r["failed"] == 0 for side in runs.values() for r in side)
    record = json.loads(out.read_text()) if out.exists() else {}
    record["label"] = args.label
    record.setdefault("layers" if args.trace else "workloads", {})[args.workload] = {
        "base": commit,
        "change": describe_working_tree(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pairs": args.pairs,
        "first": "base on odd pairs, change on even pairs (pair 1 is odd)",
        "machine": machines["base"][0]["machine"],
        "rounds": {side: [m["rounds"] for m in lines] for side, lines in machines.items()},
        "all_correct": ok,
        "metrics": summarise(specs, runs["base"], runs["change"]),
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
