"""The benchmark's trace counters see gridres's reduction and dense solver.

``perfbench/tracing.py`` binds ``summation.block_sum``, the dense
Laplacian and solver entry points and ``GroundedSolver``'s methods by name,
and counts each ``block_sum`` call's ``count``. A refactor that renamed one
of them, bypassed it or stopped filling ``count`` would leave ``--trace 1``
reporting zeros, or crashing in ``install``, without failing a test, so
this pins the counters on a few small calls. The tracer replaces functions
module-wide, so each trace runs in a fresh interpreter.
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
{calls}
print(json.dumps(tracer.per_round([(start, time.perf_counter())], [1.0])))
"""


def _trace(calls: str) -> dict:
    """Per-layer trace metrics of ``calls``, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(calls=calls), str(ROOT / "src"), str(ROOT / "perfbench")],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=60,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_trace_counts_block_sum_work():
    layers = _trace(
        "gridres.rave_torus((8, 8))\n"
        "gridres.interior_sum(4, 3)\n"
        "gridres.estimate_integral(3, budget=10**4)"
    )
    assert layers["summation.block_sum.calls"] == 4
    # folded rows: 8 x 8 sums the other side's half-table indices 1..4 (index
    # 0 is the null mode), interior 4^3 the 3 multisets of {1, 2} over its two
    # other sides (t[3] = t[1]); Monte Carlo sums 10^4 values and their squares
    assert layers["summation.block_sum.values"] == 4 + 3 + 2 * 10**4
    assert layers["quadrature.interior_sum.terms"] == 3


def test_trace_counts_dense_solver_calls():
    layers = _trace(
        "g = gridres.Explicit(4, [(0, 1), (1, 2), (2, 3), (0, 2)])\n"
        "gridres.pairwise_reff(g, 0, 3)\n"
        "gridres.rave_definition_oracle(g)\n"
        "gridres.rave(g)"
    )
    assert layers["resistance.pairwise_reff.calls"] == 1
    assert layers["laplacian.build_laplacian.calls"] == 3
    # pairwise_reff reads the last pivot of its own Cholesky loop, and rave
    # reads the inverse factor without forming the Green matrix
    assert layers["linsolve.GroundedSolver.factor.calls"] == 2
    assert layers["linsolve.GroundedSolver.green_matrix.calls"] == 1
    # nothing here solves
    assert layers["linsolve.GroundedSolver.solve.calls"] == 0
