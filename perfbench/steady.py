"""Steadiness check: two sets of benchmark runs of one commit, compared.

    python3 perfbench/steady.py

Each of the two sets runs every workload ten times for BENCHMARK.json's
run_seconds, each run with its own seed: 1-10 in the first set, 11-20 in
the second. For every end-to-end metric it prints the median and
quartiles per set, the spread (q3 - q1) / median, and whether the two
sets agree within the bounds in BENCHMARK.json: the spread of each set
within the bound, the two medians apart by at most the bound (in either
direction), and the same share of failed operations. Three traced runs
per workload then give the tracing overhead (traced minus untraced
wall_s). The full record, with a machine block, goes to
perfbench/results/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # runs per set and workload
TRACED_RUNS = 3  # per workload, for the tracing overhead


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"steady: {' '.join(cmd)} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])
    result["seed"], result["elapsed_s"] = seed, time.perf_counter() - start
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def compare(metric: dict, first: dict, second: dict) -> dict:
    bound, spread = metric["bound"], max(first["spread"], second["spread"])
    change = (second["median"] - first["median"]) / first["median"]
    return {"change": change, "agree": spread <= bound and abs(change) <= bound, "under_third": spread <= bound / 3}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs: dict[str, list[list[dict]]] = {w: [] for w in names}
    for s in range(2):
        for w in names:
            seeds = range(1 + s * RUNS, 1 + (s + 1) * RUNS)
            runs[w].append([run_once(w, seed, seconds, 0) for seed in seeds])
    traced = {w: [run_once(w, 1 + k, seconds, 1) for k in range(TRACED_RUNS)] for w in names}

    report = {"machine": runs[names[0]][0][0]["info"]["machine"], "seconds": seconds, "workloads": {}}
    ok = True
    for w in names:
        sets = runs[w]
        shares = [sorted({r["failed"] / r["attempted"] for r in set_runs}) for set_runs in sets]
        correct = all(r["correct"] for set_runs in sets for r in set_runs)
        entry = {"correct": correct, "failed_shares": shares, "metrics": {}, "runs": sets}
        ok &= correct and all(share == shares[0] and len(share) == 1 for share in shares)
        print(f"\n{w}: correct={correct} failed shares={shares} "
              f"attempted={[min(r['attempted'] for r in s) for s in sets]}..")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sums = [summary([r["metrics"][name]["value"] for r in set_runs]) for set_runs in sets]
            row = {"sets": sums, **compare(metric, *sums)}
            ok &= row["agree"]
            line = "  ".join(f"{m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}] spread {m['spread']:.3f}" for m in sums)
            line += f"  change {row['change']:+.3f} bound {metric['bound']} " + (
                "agree" if row["agree"] else "DISAGREE") + ("" if row["under_third"] else " (spread > bound/3)")
            print(f"  {name:13s} {line}")
            entry["metrics"][name] = row
        traced_wall = statistics.median(r["metrics"]["traced.wall_s"]["value"] for r in traced[w])
        untraced = entry["metrics"]["wall_s"]["sets"][0]["median"]
        entry["tracing"] = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced,
                            "overhead_s": traced_wall - untraced, "runs": traced[w]}
        print(f"  tracing overhead: traced wall_s {traced_wall:.4g} - untraced {untraced:.4g} "
              f"= {traced_wall - untraced:+.4g} s ({(traced_wall - untraced) / untraced:+.1%})")
        report["workloads"][w] = entry
    out = HERE / "results" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\nmachine: {json.dumps(report['machine'])}\n{'AGREE' if ok else 'DISAGREE'}; record in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
