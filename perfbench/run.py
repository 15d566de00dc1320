"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads (each run starts fresh processes; see README.md for why each
was chosen and which layer it loads):

* ``campaign``        -- the class-C paper campaign, cold then warm cache;
* ``optimize``        -- gear-plan searches on FT.T.64 and CG.T.64;
* ``advisor-service`` -- open-loop TCP load on ``repro-experiments serve``.

``--trace 0`` measures the end-to-end metrics with no instrumentation;
times of work are in reference seconds (``calibrate.py``), the service's
latencies are raw.  ``--trace 1`` runs one
untraced and one traced cycle and reports the per-layer metrics of the
traced one, its uncovered share and the tracing overhead.
Human-readable lines come first; the last line of standard output is
one JSON object.  The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from common import layer_summary, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = json.loads((HERE / "pins.json").read_text())
CHILD_TIMEOUT_S = 170
WORKLOADS = ("campaign", "optimize", "advisor-service")
#: Set-up probes per run (besides the set-up the measured cycles pay).
SETUP_PROBES = 8
#: Warm campaign runs per cold one, each in its own fresh process.
WARM_RUNS = 2

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_s": "s",
    "warm_s": "s",
}

#: Per-layer metrics: name -> unit.  A ``.s`` / ``_s`` metric is the
#: layer's self time in the traced cycle; a share is a ratio in [0, 1].
PER_LAYER = {
    "compile.calls": "count", "compile.compiled": "count",
    "compile.groups": "count", "compile.s": "s",
    "classify.calls": "count", "classify.exact_share": "ratio",
    "classify.s": "s",
    "lower.hits": "count", "lower.misses": "count", "lower.s": "s",
    "batch.calls": "count", "batch.points": "count",
    "batch.quotient_share": "ratio", "batch.splits": "count",
    "batch.scalar_points": "count", "batch.per_rank_points": "count",
    "batch.s": "s",
    "scalar.calls": "count", "scalar.s": "s",
    "sampled.calls": "count", "sampled.s": "s",
    "fallbacks": "count",
    "engine.runs": "count", "engine.events": "count", "engine.s": "s",
    "cache.gets": "count", "cache.hit_share": "ratio", "cache.hot_hits": "count",
    "cache.puts": "count", "cache.get_s": "s", "cache.put_s": "s",
    "runner.simulated": "count", "runner.memo_hits": "count",
    "runner.s": "s",
    "section.table.s": "s", "section.figure.s": "s",
    "optimize.candidates": "count", "optimize.pruned": "count",
    "optimize.batches": "count", "optimize.max_batch": "count",
    "optimize.evaluated_share": "ratio", "optimize.plans_per_s": "1/s",
    "optimize.s": "s",
    "service.p99_ms": "ms",
    "service.sweep_p99_ms": "ms", "service.advise_p99_ms": "ms",
    "service.late_p99_ms": "ms",
    "service.points_submitted": "count", "service.waiters_coalesced": "count",
    "service.coalesce_ratio": "ratio", "service.grids_run": "count",
    "service.peak_queue": "count", "service.overloads": "count",
    "service.max_qps": "1/s",
    "trace.overhead_s": "s", "trace.uncovered_share": "ratio", "trace.spans": "count",
}
#: Span name -> the per-layer metric holding its self time.
SPAN_METRICS = {
    "compile": "compile.s", "classify": "classify.s", "lower": "lower.s",
    "batch": "batch.s", "scalar": "scalar.s", "sampled": "sampled.s",
    "engine": "engine.s", "cache.get": "cache.get_s", "cache.put": "cache.put_s",
    "runner": "runner.s", "section.table": "section.table.s",
    "section.figure": "section.figure.s", "optimize": "optimize.s",
}


class ChildFailed(RuntimeError):
    pass


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: int, work: Path,
                 trace: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Samples of the end-to-end metrics, reported ones (reference
        #: seconds, but raw service latencies) and raw ones.
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.dumps: list[dict] = []
        #: Peak RSS of every process of the workload (children, servers).
        self.rss_mb: list[float] = []
        self.extra: dict = {}
        self.children = 0
        self.t0 = time.perf_counter()

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; it failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def add(self, key: str, raw: float, reported: float) -> None:
        self.raw.setdefault(key, []).append(raw)
        self.samples.setdefault(key, []).append(reported)

    def left(self) -> float:
        """Seconds of the run's ``--seconds`` still to go."""
        return self.seconds - (time.perf_counter() - self.t0)

    def child(self, task: str, *extra: str, traced: bool = False) -> dict:
        """Run one ``cycles.py`` task in a fresh process; return its result."""
        self.children += 1
        out = self.work / f"child-{self.children}.json"
        cmd = [sys.executable, str(HERE / "cycles.py"), task, "--out", str(out),
               "--seed", str(self.seed), *extra]
        spans = self.work / f"spans-{self.children}.json"
        if traced:
            cmd += ["--trace", str(spans)]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise ChildFailed(f"{task} child exited with code {proc.returncode}")
        if traced:
            self.dumps.append(json.loads(spans.read_text()))
        result = json.loads(out.read_text())
        self.rss_mb.append(result["rss_mb"])
        return result


# ---------------------------------------------------------------------------
# one cycle per workload: returns the seconds a user waited in it
# ---------------------------------------------------------------------------
def campaign_cycle(run: Run, traced: bool) -> float:
    cache = run.work / f"campaign-cache-{run.children}"
    try:
        results = [("cold", run.child("campaign", "--cache-dir", str(cache),
                                      traced=traced))]
        for _ in range(WARM_RUNS):
            results.append(("warm", run.child("campaign", "--cache-dir", str(cache),
                                              traced=traced)))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    for label, result in results:
        run.check(result["body_digest"] == PINS["campaign_body"],
                  f"campaign {label} report body differs from the pinned digest")
        run.check(result["cache_digest"] == PINS["campaign_cache"],
                  f"campaign {label} cached measurements differ from the pinned digest")
        run.check(result["fidelity"] == PINS["campaign_fidelity"],
                  f"campaign {label} Table 2 fidelity {result['fidelity']}")
        run.add("setup_s", *result["setup_s"])
    cold, *warm = [result["answers"][0][0] for _, result in results]
    run.add("cold_s", *cold)
    for answer in warm:
        run.add("warm_s", *answer)
    return cold[0] + sum(raw for raw, _ in warm)


def optimize_cycle(run: Run, traced: bool) -> float:
    # Both cycles of a --trace 1 run make two passes, so they compare.
    budget = 0.0 if run.trace else max(run.left(), 0.0)
    result = run.child("optimize", "--budget", f"{budget:.3f}", traced=traced)
    first, *later = result["winners"]
    for pin, c in zip(PINS["optimize_winners"], first):
        label = f"optimize {c['workload']} delta={c['delta']}"
        run.check(c["within_cap"], f"{label}: winner exceeds (1+delta) x baseline")
        run.check({k: c[k] for k in pin} == pin, f"{label}: winner differs from the pin")
    for i, winners in enumerate(later, 2):
        for c, w in zip(first, winners):
            run.check(w == c, f"optimize {c['workload']} delta={c['delta']}: "
                              f"pass {i} found another winner")
    run.add("setup_s", *result["setup_s"])
    cold, *warm = result["answers"]
    run.add("cold_s", *map(sum, zip(*cold)))
    for answers in warm:
        run.add("warm_s", *map(sum, zip(*answers)))
    return sum(raw for answers in result["answers"] for raw, _ in answers)


def service_cycle(run: Run, traced: bool) -> float:
    import service_load

    run.children += 1
    spans = run.work / f"server-spans-{run.children}.json"
    # The ladder runs only in --trace 1 runs (both cycles), for service.max_qps.
    result = service_load.run_cycle(ROOT, run.work, run.env, run.seed, run.seconds,
                                    trace=spans if traced else None, ladder=run.trace)
    if traced:
        run.dumps.append(json.loads(spans.read_text()))
    cold, fixed, ladder = result["cold"], result["fixed"], result["ladder"]
    for phase in (cold, fixed, *ladder):
        run.attempted += phase.sent
        run.failed += sum(phase.errors.values())
        for code, n in phase.errors.items():
            run.problems.append(f"advisor-service: {n} '{code}' error responses")
    check_answers(run, result["answers"])
    run.add("setup_s", *result["setup_s"])
    run.rss_mb.append(result["rss_mb"])
    run.add("cold_s", cold.duration(), cold.scaled_s)
    p50_s = fixed.windowed_p50_ms() / 1e3
    run.add("warm_s", p50_s, p50_s)
    sustained = [p for p in (fixed, *ladder) if p.sustained()]
    best = max(sustained, key=lambda p: p.rate, default=None)
    run.extra.update(fixed=fixed, ladder=ladder, stats=result["stats"],
                     max_rate=best.rate if best else 0.0)
    return cold.duration() + sum(fixed.latencies_ms) / 1e3


def check_answers(run: Run, answers: dict) -> None:
    """Count every served answer that differs from the serial library call."""
    import service_load

    for key, seen in answers.items():
        expected = service_load.library_answer(key)
        wrong = sum(n for answer, n in seen.items() if answer != expected)
        if wrong:
            run.failed += wrong
            run.problems.append(f"advisor-service: {wrong} answers to {key} differ "
                                "from the serial library call")


CYCLES = {
    "campaign": campaign_cycle,
    "optimize": optimize_cycle,
    "advisor-service": service_cycle,
}


def setup_probes(run: Run) -> None:
    """Pay the workload's set-up a few more times, so ``setup_s`` is a median.

    The campaign needs none: each of its fresh processes is a set-up
    sample.  The service probes also answer the priming requests on their
    fresh servers, which makes its ``cold_s`` a median too.
    """
    if run.workload == "optimize":
        for _ in range(SETUP_PROBES):
            run.add("setup_s", *run.child("optimize", "--setup-only")["setup_s"])
    elif run.workload == "advisor-service":
        import service_load

        for i in range(SETUP_PROBES):
            probe = service_load.probe(ROOT, run.work / f"probe-cache-{i}", run.env)
            cold = probe["cold"]
            run.attempted += cold.sent
            run.failed += sum(cold.errors.values())
            check_answers(run, probe["answers"])
            run.add("setup_s", *probe["setup_s"])
            run.add("cold_s", cold.duration(), cold.scaled_s)
            run.rss_mb.append(probe["rss_mb"])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def end_to_end(run: Run) -> dict[str, float]:
    """Medians of the run's samples."""
    out = {key: statistics.median(run.samples[key])
           for key in ("setup_s", "cold_s", "warm_s")}
    out["peak_rss_mb"] = max(run.rss_mb)
    return out


def per_layer(run: Run, overhead_s: float) -> dict[str, float]:
    self_s, wall, uncovered = layer_summary(run.dumps)
    c: Counter = Counter()
    for dump in run.dumps:
        for key, value in dump["counters"].items():
            c[key] = max(c[key], value) if key == "optimize.max_batch" else c[key] + value
    stats = run.extra.get("stats", {}).get("batcher", {})
    coalesced = stats.get("waiters_coalesced", 0)
    submitted = stats.get("points_submitted", 0)
    out = {name: c[name] for name, unit in PER_LAYER.items() if unit == "count"}
    fixed = run.extra.get("fixed")

    def service_p99(latencies_ms: list) -> float:
        return percentile(latencies_ms, 99) if latencies_ms else 0.0

    out.update({
        "classify.exact_share": share(c["classify.exact"], c["classify.calls"]),
        "batch.quotient_share": share(c["batch.quotient_points"], c["batch.points"]),
        "cache.hit_share": share(c["cache.hits"], c["cache.gets"]),
        "optimize.evaluated_share": share(c["optimize.candidates"], c["optimize.space"]),
        "optimize.plans_per_s": (c["optimize.candidates"] / inclusive_s(run.dumps, "optimize")
                                 if c["optimize.candidates"] else 0.0),
        "service.p99_ms": service_p99(fixed.latencies_ms if fixed else []),
        "service.sweep_p99_ms": service_p99(fixed.by_op_ms["sweep"] if fixed else []),
        "service.advise_p99_ms": service_p99(fixed.by_op_ms["advise"] if fixed else []),
        "service.late_p99_ms": service_p99(fixed.late_ms if fixed else []),
        "service.points_submitted": submitted,
        "service.waiters_coalesced": coalesced,
        "service.coalesce_ratio": share(coalesced, submitted + coalesced),
        "service.grids_run": stats.get("grids_run", 0),
        "service.peak_queue": stats.get("peak_queue", 0),
        "service.overloads": stats.get("overloads", 0),
        "service.max_qps": run.extra.get("max_rate", 0.0),
        "trace.overhead_s": overhead_s,
        "trace.uncovered_share": share(uncovered, wall),
        "trace.spans": sum(len(d["spans"]) for d in run.dumps),
    })
    for span, metric in SPAN_METRICS.items():
        out[metric] = self_s.get(span, 0.0)
    run.extra.update(self_s=self_s, wall=wall, uncovered=uncovered,
                     reasons=sum((Counter(d["reasons"]) for d in run.dumps), Counter()))
    return out


def inclusive_s(dumps: list, name: str) -> float:
    """Seconds inside the outermost ``name`` spans, children included."""
    total = 0.0
    for dump in dumps:
        names = {s["id"]: s["name"] for s in dump["spans"]}
        for s in dump["spans"]:
            if s["name"] == name and names.get(s["parent"]) != name:
                total += s["end"] - s["start"]
    return total


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def human_lines(run: Run, metrics: dict, traced: bool) -> list[str]:
    lines = [f"# {run.workload}  seed={run.seed}  "
             f"attempted={run.attempted} failed={run.failed}  "
             f"error_rate={run.failed / max(run.attempted, 1):.4f}"]
    if not traced:
        lines.append("  samples: " + ", ".join(
            f"{k}={len(v)}" for k, v in sorted(run.samples.items())))
        m = metrics
        named = {"setup_s": (m["setup_s"], "s"), "peak_rss_mb": (m["peak_rss_mb"], "MB")}
        if run.workload == "campaign":
            named.update(campaign_cold_s=(m["cold_s"], "s"),
                         campaign_warm_s=(m["warm_s"], "s"))
        elif run.workload == "optimize":
            named.update(optimize_s=(m["cold_s"], "s"))
        else:
            fixed = run.extra["fixed"]
            named.update(service_p50_ms=(percentile(fixed.latencies_ms, 50), "ms"),
                         service_windowed_p50_ms=(m["warm_s"] * 1e3, "ms"),
                         service_p99_ms=(fixed.p99_ms(), "ms"))
        named["error_rate"] = (run.failed / max(run.attempted, 1), "ratio")
        lines += [f"  {k:24s} {v:14.4f} {u}" for k, (v, u) in named.items()]
        lines.append("  raw wall medians (times above are reference seconds): " + ", ".join(
            f"{k}={statistics.median(v):.4g}" for k, v in sorted(run.raw.items())))
    else:
        wall = run.extra["wall"]
        lines.append(f"  traced wall {wall:.3f}s; self time by layer:")
        for name, secs in sorted(run.extra["self_s"].items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:16s} {secs:10.4f}s {100 * share(secs, wall):6.2f}%")
        lines.append(f"    {'(no layer)':16s} {run.extra['uncovered']:10.4f}s "
                     f"{100 * share(run.extra['uncovered'], wall):6.2f}%")
        if run.extra["reasons"]:
            lines.append("  fallback reasons: " + ", ".join(
                f"{k} x{v}" for k, v in sorted(run.extra["reasons"].items())))
    phases = [run.extra["fixed"], *run.extra["ladder"]] if "fixed" in run.extra else []
    for phase in phases:
        lines.append(
            f"  rate {phase.rate:5.0f}/s: n={phase.completed} "
            f"p50={percentile(phase.latencies_ms, 50):.1f}ms "
            f"p99={phase.p99_ms():.1f}ms "
            f"late_p99={percentile(phase.late_ms, 99):.2f}ms "
            f"peak_in_flight={max(phase.outstanding)} "
            f"{'sustained' if phase.sustained() else 'NOT sustained'}")
    for problem in run.problems:
        lines.append(f"  CHECK FAILED: {problem}")
    return lines


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> tuple:
    run = Run(workload, seed, seconds, work, trace)
    cycle = CYCLES[workload]
    if trace:
        untraced = cycle(run, traced=False)
        # The service's latencies, ladder and stats come from the
        # untraced server; the traced one gives the spans.
        client = dict(run.extra)
        traced = cycle(run, traced=True)
        run.extra.update(client)
        metrics = per_layer(run, traced - untraced)
    else:
        setup_probes(run)
        while True:
            cycle(run, traced=False)
            # The service's phases fill the run; the optimize child
            # repeats its passes until the run's time is up.
            if workload != "campaign" or run.left() <= 0:
                break
        metrics = end_to_end(run)
    units = PER_LAYER if trace else END_TO_END
    return run, {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def machine_header() -> str:
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={metadata.version('numpy')} platform={platform.platform()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The advisor-service workload checks answers with in-process library calls.
    sys.path.insert(0, str(ROOT / "src"))
    # On SIGTERM, unwind like an exception, so every child process and
    # server is stopped and reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print(machine_header())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        work = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            run, metrics = measure(name, args.seed, args.seconds, bool(args.trace), work)
        except (ChildFailed, subprocess.TimeoutExpired, OSError) as exc:
            print(f"perfbench: {name} did not complete: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                work.parent.rmdir()  # only when no other run is using it
        print("\n".join(human_lines(run, {k: v["value"] for k, v in metrics.items()},
                                    bool(args.trace))))
        correct = run.failed == 0 and not run.problems
        ok = ok and correct
        result = {"correct": correct, "attempted": run.attempted,
                  "failed": run.failed, "metrics": metrics}
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
