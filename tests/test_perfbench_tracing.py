"""The benchmark's trace counters see gridres's reduction.

``perfbench/tracing.py`` binds ``summation.block_sum`` by name and counts
each call's ``count``. A refactor that renamed the reduction, bypassed it
or stopped filling ``count`` would leave ``--trace 1`` reporting zeros
without failing, so this pins the counters on three small calls. The
tracer replaces functions module-wide, so it runs in a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import gridres
from tracing import Tracer

tracer = Tracer()
tracer.install(gridres)
start = time.perf_counter()
gridres.rave_torus((8, 8))
gridres.interior_sum(4, 3)
gridres.estimate_integral(3, budget=10**4)
print(json.dumps(tracer.per_round([(start, time.perf_counter())], [1.0])))
"""


def test_trace_counts_block_sum_work():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=60,
    )
    layers = json.loads(proc.stdout.strip().splitlines()[-1])
    assert layers["summation.block_sum.calls"] == 4
    assert layers["summation.block_sum.values"] == 20016
    assert layers["quadrature.interior_sum.terms"] == 9
