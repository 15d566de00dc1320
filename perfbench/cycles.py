"""One measured cycle of a batch workload, run in a fresh child process.

    python3 perfbench/cycles.py <task> --out result.json [--seed N]
        [--cache-dir DIR] [--budget S] [--trace spans.json] [--setup-only]

Tasks:

* ``campaign`` -- the class-C paper campaign with ``jobs=1`` against
  ``--cache-dir`` (an empty directory makes it the cold run, a filled
  one the warm run);
* ``optimize`` -- ``optimize_gear_plan`` on FT.T.64 and CG.T.64 at four
  deltas: a first pass in this fresh process, then further passes
  while the process is younger than ``--budget`` seconds (at least one).

The result file holds the set-up time (imports plus workload
construction), the process's peak RSS, the time of every answer (a
campaign report, one search) in each pass, and what the orchestrator
checks: report and measurement digests (for the campaign, of its whole
disk cache), Table 2 fidelity, optimizer winners.  Each time is a
pair: raw seconds, and reference seconds (``calibrate.py``) scaled by
the reference units the process runs during and after it.
``--trace`` wraps the layers' entry points (``spans.py``) for the
measured passes and writes the spans there; a traced process runs no
reference units.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Reference  # noqa: E402
from common import digest  # noqa: E402

OPT_CODES = ("FT", "CG")
OPT_DELTAS = (0.0, 0.05, 0.10, 0.20)
FOOTER = "\n---\n\n*Campaign wall time"


def setup_done(result: dict, ref: Reference, tracer) -> None:
    raw = time.perf_counter() - T_START
    result["setup_s"] = [raw, ref.scaled(raw, [])]
    if tracer is not None:
        tracer.window[0] = time.perf_counter()


def campaign(args, ref: Reference, tracer) -> dict:
    from repro.experiments.campaign import run_campaign

    result: dict = {}
    setup_done(result, ref, tracer)
    report, seconds = ref.time(run_campaign, klass="C", jobs=1,
                               cache_dir=args.cache_dir)
    body, _, footer = report.partition(FOOTER)
    fidelity = re.search(r"delay (\d+\.\d+), energy (\d+\.\d+)", footer)
    # The report prints rounded figures; the cache holds every cacheable
    # point's key and summary fields bit for bit.
    entries = sorted(p.read_text() for p in Path(args.cache_dir).rglob("*.json"))
    result.update(
        answers=[[seconds]],
        body_digest=digest(body),
        cache_digest=digest([json.loads(e) for e in entries]),
        fidelity=list(fidelity.groups()) if fidelity else None,
    )
    return result


def optimize(args, ref: Reference, tracer) -> dict:
    import repro.optimize
    from repro.workloads import get_workload

    workloads = [get_workload(code, klass="T", nprocs=64) for code in OPT_CODES]
    result: dict = {}
    setup_done(result, ref, tracer)
    if args.setup_only:
        return result

    def one_pass() -> tuple[list[list[float]], list[dict]]:
        times, winners = [], []
        for workload in workloads:
            for delta in OPT_DELTAS:
                # Looked up on the package each call, as callers do, so
                # the tracer's wrapper sees it.
                found, seconds = ref.time(repro.optimize.optimize_gear_plan,
                                          workload, delta, seed=args.seed)
                times.append(seconds)
                best = found.best.measurement
                winners.append({
                    "workload": workload.tag,
                    "delta": delta,
                    "table": [list(row) for row in found.strategy.table],
                    "energy_j": best.energy_j.hex(),
                    "elapsed_s": best.elapsed_s.hex(),
                    "within_cap": best.elapsed_s
                    <= (1.0 + delta) * found.baseline.elapsed_s,
                })
        return times, winners

    passes = [one_pass()]
    while len(passes) < 2 or time.perf_counter() - T_START < args.budget:
        passes.append(one_pass())
    result.update(answers=[t for t, _ in passes], winners=[w for _, w in passes])
    return result


TASKS = {"campaign": campaign, "optimize": optimize}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("task", choices=sorted(TASKS))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-dir")
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace", help="write the layer spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        from spans import install

        tracer = install()
    ref = Reference(active=tracer is None)
    result = TASKS[args.task](args, ref, tracer)
    if tracer is not None:
        tracer.window[1] = time.perf_counter()
        tracer.dump(args.trace)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
