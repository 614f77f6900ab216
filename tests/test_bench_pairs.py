import importlib.util
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
