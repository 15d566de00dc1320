"""In-memory span tracer that attributes wall time to ``repro``'s layers.

The tracer changes nothing under ``src/``: :func:`install` replaces each
layer's entry point *where its callers look it up* (a module attribute
or a class attribute, never a ``from``-imported copy in the benchmark)
with a wrapper that records a span around the call and a few counters
from its arguments and result.  Spans carry a name, start, end and
parent; each thread keeps its own stack of open spans, so work that the
advisor service runs in executor threads nests correctly.

Spans stay in memory and are written out once, by :meth:`Tracer.dump`,
when the traced process ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.reasons: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.window = [time.perf_counter(), None]
        self._lowering0 = (0, 0)

    def _open(self) -> list[tuple[int, str]]:
        """This thread's open spans, innermost last: (id, name)."""
        stack = getattr(self._local, "open", None)
        if stack is None:
            stack = self._local.open = []
        return stack

    def depth(self, name: str) -> int:
        """How many spans named ``name`` are open on this thread."""
        return sum(1 for _, n in self._open() if n == name)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._open()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def dump(self, path: str) -> None:
        from repro.sim.straightline import lowering_cache_counters

        hits, misses = lowering_cache_counters()
        self.counters["lower.hits"] += hits - self._lowering0[0]
        self.counters["lower.misses"] += misses - self._lowering0[1]
        if self.window[1] is None:
            self.window[1] = time.perf_counter()
        payload = {
            "window": self.window,
            "counters": dict(self.counters),
            "reasons": dict(self.reasons),
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(make(original)))


def install() -> Tracer:
    """Wrap every layer entry point; return the tracer recording them."""
    import repro.experiments.figures as figures
    import repro.experiments.tables as tables
    import repro.optimize as optimize_pkg
    import repro.optimize.search as search
    import repro.sim.straightline as sl
    import repro.workloads.compile as compile_mod
    from repro.experiments.parallel import ParallelRunner
    from repro.experiments.store import MeasurementCache
    from repro.sim.engine import Environment

    tracer = Tracer()
    count = tracer.counters
    tracer._lowering0 = sl.lowering_cache_counters()

    # workloads.compile -- straightline imported compile_workload and
    # classify_channels by name, so its module attributes are the ones
    # every tier calls through.
    def make_compile(original):
        def compile_workload(workload, fastest_hz):
            try:
                cached = fastest_hz in compile_mod._CACHE.get(workload, {})
            except TypeError:
                cached = False
            program = tracer.call("compile", original, workload, fastest_hz)
            count["compile.calls"] += 1
            if not cached:
                count["compile.compiled"] += 1
                count["compile.groups"] += program.n_groups
            return program
        return compile_workload

    def make_classify(original):
        def classify_channels(*args, **kwargs):
            verdict = tracer.call("classify", original, *args, **kwargs)
            count["classify.calls"] += 1
            count["classify.exact"] += bool(verdict.exact)
            return verdict
        return classify_channels

    for owner in (sl, compile_mod):
        _patch(owner, "compile_workload", make_compile)
    _patch(sl, "classify_channels", make_classify)

    # sim.straightline: lowering, batch, scalar/sampled, fallbacks.
    _patch(sl, "_lower_gear_actions",
           lambda original: lambda *a, **k: tracer.call("lower", original, *a, **k))

    def make_batch(original):
        def run_batch(workload, points, *args, stats=None, **kwargs):
            info = {} if stats is None else stats
            try:
                return tracer.call("batch", original, workload, points,
                                   *args, stats=info, **kwargs)
            finally:
                count["batch.calls"] += 1
                count["batch.points"] += len(points)
                for key in ("quotient_points", "per_rank_points",
                            "scalar_points", "splits"):
                    count["batch." + key] += info.get(key, 0)
                for reason, n in info.get("fallback_reasons", {}).items():
                    tracer.reasons[reason] += n
        return run_batch

    def make_scalar(original):
        def run_straightline(workload, strategy=None, *args, **kwargs):
            sampled = (
                strategy is not None
                and strategy.gear_plan(workload) is None
                and strategy.controller() is not None
            )
            name = "sampled" if sampled else "scalar"
            count[name + ".calls"] += 1
            return tracer.call(name, original, workload, strategy, *args, **kwargs)
        return run_straightline

    def make_try(original):
        def try_run_straightline(*args, stats=None, **kwargs):
            info = {} if stats is None else stats
            result = original(*args, stats=info, **kwargs)
            if result is None:
                count["fallbacks"] += 1
                tracer.reasons[info.get("fallback_reason", "unknown")] += 1
            return result
        return try_run_straightline

    _patch(sl, "run_batch", make_batch)
    _patch(sl, "run_straightline", make_scalar)
    _patch(sl, "try_run_straightline", make_try)

    # sim.engine: one outermost Environment.run per event-engine run.
    def make_engine(original):
        def run(self, until=None):
            if tracer.depth("engine"):
                return original(self, until)
            eid0 = self._eid
            try:
                return tracer.call("engine", original, self, until)
            finally:
                count["engine.runs"] += 1
                count["engine.events"] += self._eid - eid0
        return run

    _patch(Environment, "run", make_engine)

    # experiments.store: disk cache reads and writes.
    def make_get(original):
        def get(self, key):
            hot0 = self.stats.hot_hits
            result = tracer.call("cache.get", original, self, key)
            count["cache.gets"] += 1
            count["cache.hits"] += result is not None
            count["cache.hot_hits"] += self.stats.hot_hits - hot0
            return result
        return get

    def make_put(original):
        def put(self, key, measurement):
            count["cache.puts"] += 1
            return tracer.call("cache.put", original, self, key, measurement)
        return put

    _patch(MeasurementCache, "get", make_get)
    _patch(MeasurementCache, "put", make_put)

    # experiments.parallel: the runner's grid entry points.
    def make_runner(original):
        def entry(self, tasks, *args, **kwargs):
            runs0, hits0 = self.stats.runs, self.stats.hits
            cache_hits0 = count["cache.hits"]
            try:
                return tracer.call("runner", original, self, tasks, *args, **kwargs)
            finally:
                hits = self.stats.hits - hits0
                count["runner.simulated"] += (self.stats.runs - runs0) - hits
                count["runner.memo_hits"] += hits - (count["cache.hits"] - cache_hits0)
        return entry

    _patch(ParallelRunner, "map", make_runner)
    _patch(ParallelRunner, "map_sweep", make_runner)

    # experiments.tables / figures: the campaign looks sections up as
    # module attributes (``tables.table2``, ``figures.figure12_cg_trace``).
    for module, prefix, kind in ((tables, "table", "section.table"),
                                 (figures, "figure", "section.figure")):
        for attr in [a for a in vars(module) if a.startswith(prefix)]:
            if callable(getattr(module, attr)):
                _patch(module, attr,
                       lambda original, kind=kind:
                       lambda *a, **k: tracer.call(kind, original, *a, **k))

    # optimize.search: callers import ``optimize_gear_plan`` from the
    # package at call time, so the package attribute is the one to wrap.
    def make_optimize(original):
        def optimize_gear_plan(*args, **kwargs):
            result = tracer.call("optimize", original, *args, **kwargs)
            t = result.telemetry
            count["optimize.searches"] += 1
            count["optimize.candidates"] += t.candidates_evaluated
            count["optimize.pruned"] += t.candidates_pruned
            count["optimize.batches"] += t.batches
            count["optimize.max_batch"] = max(count["optimize.max_batch"], t.max_batch)
            count["optimize.space"] += t.space_size
            return result
        return optimize_gear_plan

    _patch(search, "optimize_gear_plan", make_optimize)
    optimize_pkg.optimize_gear_plan = search.optimize_gear_plan
    return tracer
