"""Span tracing of gridres's public functions, installed from outside the package.

``Tracer.install(gridres)`` replaces each traced function with a wrapper
that records a span (name, start, end, parent, thread) plus optional work
counts. A function that another module imported by name is replaced there
too, since the wrapper is swapped in wherever the original object is
bound. Spans stay in memory until ``write``; a call that raises leaves no
span. Self time is a span's length minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import statistics
import threading
import time
from collections import Counter
from pathlib import Path

# Module-level functions, named module.attribute.
FUNCTIONS = (
    "resistance.rave",
    "resistance.rave_torus",
    "resistance.rave_definition_oracle",
    "resistance.pairwise_reff",
    "resistance.rave_hypercube_binomial",
    "spectrum.torus_spectrum",
    "spectrum.spectral_rave",
    "spectrum.stream_from_eigenvalues",
    "spectrum.side_contribution_table",
    "summation.block_sum",
    "summation.reduce_blocks",
    "summation.map_blocks",
    "eigen.eigenvalues_symmetric",
    "laplacian.build_laplacian",
    "quadrature.interior_sum",
    "cli.main",
)
# Methods: traced name -> (module, class, attribute).
METHODS = {
    "spectrum.SpectrumStream.lambda_block": ("spectrum", "SpectrumStream", "lambda_block"),
    "spectrum.SpectrumStream.inverse_terms": ("spectrum", "SpectrumStream", "inverse_terms"),
    "linsolve.GroundedSolver.factor": ("linsolve", "GroundedSolver", "__init__"),
    "linsolve.GroundedSolver.green_matrix": ("linsolve", "GroundedSolver", "green_matrix"),
    "linsolve.GroundedSolver.solve": ("linsolve", "GroundedSolver", "solve"),
}
MONTE_CARLO = "quadrature.estimate_integral.monte_carlo"
ESTIMATORS = (MONTE_CARLO, "quadrature.estimate_integral.riemann_refined")
BLOCK = "summation.map_blocks.block"  # one block function call inside map_blocks
TRACED = (*FUNCTIONS, BLOCK, *METHODS, *ESTIMATORS)

# Work counts recorded on a span: traced name -> (count name, fn(args, result)).
WORK = {
    "spectrum.SpectrumStream.lambda_block": ("eigenvalues", lambda a, r: a[2] - a[1]),
    "summation.block_sum": ("values", lambda a, r: r.count),
    "summation.map_blocks": ("blocks", lambda a, r: len(a[0])),
    "resistance.rave_torus": ("terms", lambda a, r: r.terms),
    "quadrature.estimate_integral.riemann_refined": (
        "points",
        lambda a, r: r.params["grid"] ** r.d + r.params["coarse_grid"] ** r.d,
    ),
    MONTE_CARLO: ("samples", lambda a, r: r.params["samples"]),
}
# Work counts summed from descendant spans: traced name -> (count name, descendant name).
# interior_sum returns only a float, so its terms are the values its block_sum calls added up.
DESCENDANT_WORK = {"quadrature.interior_sum": ("terms", "summation.block_sum")}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[int, tuple] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn, args: tuple, kwargs: dict):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = next(self._ids)
        stack.append(span)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        work = WORK[name][1](args, result) if name in WORK else 0
        self.spans[span] = (name, start, end, parent, threading.get_ident(), work)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return traced

    def _wrap_map_blocks(self, fn):
        # Each block gets a span of its own, child of the map_blocks span
        # even on a pool thread. So map_blocks' self time is the pool's own
        # cost, and a block's self time is the caller's untraced per-block
        # work, such as drawing Monte Carlo samples.
        def call(ranges, block_fn, threads):
            span = self._stack()[-1]

            def run_block(lo, hi):
                stack = self._stack()
                stack.append(span)
                try:
                    return self._span(BLOCK, block_fn, (lo, hi), {})
                finally:
                    stack.pop()

            return fn(ranges, run_block, threads)

        @functools.wraps(fn)
        def traced(ranges, block_fn, threads=1):
            return self._span("summation.map_blocks", call, (ranges, block_fn, threads), {})

        return traced

    def _wrap_estimator(self, fn):
        @functools.wraps(fn)
        def traced(d, method="monte_carlo", *args, **kwargs):
            name = f"quadrature.estimate_integral.{method}"
            return self._span(name, lambda *a, **k: fn(d, method, *a, **k), args, kwargs)

        return traced

    def install(self, package) -> None:
        """Swap wrappers in for every traced function, wherever it is bound."""
        modules = {
            info.name: importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        }
        wrappers = {}
        for name in FUNCTIONS:
            module, attr = name.split(".")
            original = getattr(modules[module], attr)
            wrap = self._wrap_map_blocks if name == "summation.map_blocks" else functools.partial(self._wrap, name)
            wrappers[id(original)] = wrap(original)
        estimator = modules["quadrature"].estimate_integral
        wrappers[id(estimator)] = self._wrap_estimator(estimator)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        for name, (module, cls, attr) in METHODS.items():
            klass = getattr(modules[module], cls)
            setattr(klass, attr, self._wrap(name, getattr(klass, attr)))

    def per_round(self, rounds: list[tuple[float, float]], factors: list[float]) -> dict[str, float]:
        """Per-layer metrics of one round: calls and work counts, median self times.

        Times are scaled by each round's machine-speed factor (see speed.py).
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _, start, end, parent, _, _ in self.spans.values():
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        inherited = self._descendant_work()
        per = [Counter() for _ in rounds]
        for span, (name, start, end, _, _, work) in self.spans.items():
            work += inherited.get(span, 0)
            i = next((k for k, (lo, hi) in enumerate(rounds) if lo <= start < hi), None)
            if i is None:
                continue
            tally = per[i]
            tally[name, "calls"] += 1
            tally[name, "self_s"] += ((end - start) - _covered(children.get(span, ()), start, end)) * factors[i]
            tally[name, "span_s"] += (end - start) * factors[i]
            tally[name, "work"] += work

        def median(name: str, field: str) -> float:
            return statistics.median(tally[name, field] for tally in per)

        def rate(name: str, field: str) -> float:
            busy = sum(tally[name, field] for tally in per)
            return sum(tally[name, "work"] for tally in per) / busy if busy else 0.0

        metrics: dict[str, float] = {}
        for name in TRACED:
            metrics[f"{name}.calls"] = median(name, "calls")
            metrics[f"{name}.self_s"] = median(name, "self_s")
            if name in DESCENDANT_WORK or (name in WORK and name != MONTE_CARLO):
                count = (DESCENDANT_WORK.get(name) or WORK[name])[0]
                metrics[f"{name}.{count}"] = median(name, "work")
        metrics["summation.block_sum.values_per_s"] = rate("summation.block_sum", "self_s")
        metrics[f"{MONTE_CARLO}.samples_per_s"] = rate(MONTE_CARLO, "span_s")
        return metrics

    def _descendant_work(self) -> Counter:
        """Work of each DESCENDANT_WORK span: the work of its named descendants, summed."""
        totals: Counter = Counter()
        wanted = {d: a for a, (_, d) in DESCENDANT_WORK.items()}
        for name, _, _, parent, _, work in self.spans.values():
            ancestor = wanted.get(name)
            while ancestor is not None and parent in self.spans:
                if self.spans[parent][0] == ancestor:
                    totals[parent] += work
                    break
                parent = self.spans[parent][3]
        return totals

    def write(self, path: Path, rounds: list[tuple[float, float]]) -> None:
        names = sorted({s[0] for s in self.spans.values()})
        index = {n: i for i, n in enumerate(names)}
        threads = {t: i for i, t in enumerate(sorted({s[4] for s in self.spans.values()}))}
        spans = [
            [span, index[name], start, end, parent, threads[tid], work]
            for span, (name, start, end, parent, tid, work) in sorted(self.spans.items())
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["id", "name", "start", "end", "parent", "thread", "work"],
            "names": names, "rounds": rounds, "spans": spans,
        }))


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
