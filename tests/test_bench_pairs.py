import importlib.util
import json
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _result(**values):
    return {"metrics": {name: {"value": value} for name, value in values.items()}}


def test_quartiles():
    assert bench_pairs.quartiles([3.0, 1.0, 2.0, 5.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [3.0, 1.0, 2.0, 5.0, 4.0]
    }
    # one pair, as in a smoke run: every quartile is the one value
    assert bench_pairs.quartiles([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5, "runs": [0.5]}


def test_pairs_won_follow_the_metric_direction():
    specs = [
        {"name": "wall_s", "unit": "s", "better": "lower"},
        {"name": "rate", "unit": "1/s", "better": "higher"},
    ]
    base = [_result(wall_s=1.0, rate=10.0), _result(wall_s=1.0, rate=10.0), _result(wall_s=1.0, rate=10.0)]
    change = [_result(wall_s=0.9, rate=9.0), _result(wall_s=1.0, rate=11.0), _result(wall_s=1.1, rate=12.0)]
    metrics = bench_pairs.summarise(specs, base, change)
    # a tie wins nothing
    assert metrics["wall_s"]["pairs_won"] == 1
    assert metrics["rate"]["pairs_won"] == 2
    assert metrics["wall_s"]["change"]["median"] == 1.0
    assert metrics["rate"]["unit"] == "1/s" and metrics["rate"]["better"] == "higher"


def test_trace_runs_compare_the_per_layer_metrics(monkeypatch, tmp_path):
    layers = [m["name"] for m in json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())["per_layer"]]
    commands = []

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        rounds = len(commands)
        machine = {"machine": {"nproc": 2}, "rounds": rounds}
        result = {"correct": True, "failed": 0, "metrics": {name: {"value": float(rounds)} for name in layers}}
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{json.dumps(machine)}\n{json.dumps(result)}\n")

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "describe_working_tree", lambda: "working tree")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "b.json"
    out.write_text(json.dumps({"label": "t", "workloads": {"torus_aspect": {"kept": True}}}))
    argv = ["--base", "HEAD", "--workload", "torus_aspect", "--seed", "3", "--seconds", "1",
            "--pairs", "2", "--label", "t", "--trace", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert len(commands) == 4
    assert all(cmd[cmd.index("--trace") + 1] == "1" for cmd in commands)
    record = json.loads(out.read_text())
    # the end-to-end entry of the same workload is kept beside the layer rows
    assert record["workloads"] == {"torus_aspect": {"kept": True}}
    entry = record["layers"]["torus_aspect"]
    assert entry["trace"] == 1 and list(entry["metrics"]) == layers
    # pair 1 runs base first, pair 2 the change first
    assert entry["rounds"] == {"base": [1, 4], "change": [2, 3]}
    assert entry["metrics"]["summation.block_sum.calls"]["pairs_won"] == 1
