"""Quick tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest perfbench/tests -q

They cover the statistics the benchmark reports (nearest-rank
percentile, span self time, the ladder's backlog rule, the reference
scaling), that output digests are stable across processes, that the
tracer sees calls made through the program's own callers, and that
every metric named in ``BENCHMARK.json`` is emitted with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run  # noqa: E402
from common import backlog_grows, digest, layer_summary, percentile, self_times  # noqa: E402


def subprocess_env() -> dict:
    import os

    return dict(os.environ,
                PYTHONPATH=f"{ROOT / 'src'}:{BENCH}:{ROOT / 'benchmarks'}")


def test_nearest_rank_percentile() -> None:
    assert percentile(range(1, 101), 99) == 99
    assert percentile(range(1, 11), 99) == 10
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([7.0], 1) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_self_time_subtracts_children_once_and_clips_them() -> None:
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        # Overlapping children cover [1, 5) once: 4 s.
        {"id": 2, "parent": 1, "start": 1.0, "end": 3.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 5.0},
        # Clipped to the parent: [8, 10) counts, [10, 12) does not.
        {"id": 4, "parent": 1, "start": 8.0, "end": 12.0},
        # A grandchild only reduces its own parent.
        {"id": 5, "parent": 3, "start": 2.5, "end": 4.0},
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(4.0)
    assert own[3] == pytest.approx(1.5)
    assert own[5] == pytest.approx(1.5)


def test_layer_summary_reports_uncovered_wall() -> None:
    dump = {
        "window": [0.0, 10.0],
        "spans": [
            {"id": 1, "parent": None, "name": "a", "start": 1.0, "end": 4.0},
            {"id": 2, "parent": None, "name": "b", "start": 3.0, "end": 6.0},
            {"id": 3, "parent": 2, "name": "c", "start": 4.0, "end": 5.0},
        ],
    }
    by_name, wall, uncovered = layer_summary([dump, dump])
    assert by_name == pytest.approx({"a": 6.0, "b": 4.0, "c": 2.0})
    assert wall == 20.0
    assert uncovered == pytest.approx(10.0)


def test_backlog_rule() -> None:
    steady = [10, 12, 9, 11] * 300
    assert not backlog_grows(steady)
    # A stall lifts the queue for a while, then it drains again.
    stall = steady[:500] + [80] * 100 + steady[600:]
    assert not backlog_grows(stall)
    climbing = [i // 5 for i in range(1200)]
    assert backlog_grows(climbing)
    assert not backlog_grows([0, 50])


def test_reference_scaling(monkeypatch) -> None:
    n = calibrate.UNITS
    slow, fast = 2 * calibrate.NOMINAL_S, calibrate.NOMINAL_S / 2
    bursts = [[slow] * n, [fast] * (n - 1) + [slow]]
    units = iter(bursts[0] + bursts[1])
    monkeypatch.setattr(calibrate, "unit", lambda: next(units))
    ref = calibrate.Reference()
    # Only a burst after: the host ran the reference at half speed.
    assert ref.scaled(2.0, []) == pytest.approx(1.0)
    # The units before and after, by their mean (not their median: a
    # unit's time is bimodal, and the mean integrates it like work does).
    mean = sum(bursts[0] + bursts[1]) / (2 * n)
    assert ref.scaled(1.0, ref.last) == pytest.approx(calibrate.NOMINAL_S / mean)
    assert len(ref.units) == 2 * n
    assert calibrate.slowdown([]) == 1.0
    inactive = calibrate.Reference(active=False)
    assert inactive.scaled(3.0, inactive.burst()) == 3.0 and inactive.units == []


def test_units_run_during_an_interval_are_taken_out_of_it() -> None:
    def busy(seconds: float) -> str:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    ref = calibrate.Reference()
    t0 = time.perf_counter()
    result, (raw, scaled) = ref.time(busy, 0.5)
    wall = time.perf_counter() - t0
    during = len(ref.units) - calibrate.UNITS
    assert result == "done" and during >= 3
    # The busy loop ends on the clock, so the units' time is what the
    # interval loses: raw is its wall less the units run inside it.
    assert raw < 0.5 - 0.5 * during * min(ref.units)
    assert 0 < scaled and wall > 0.5


def test_reference_unit_is_independent_of_the_program() -> None:
    source = (BENCH / "calibrate.py").read_text()
    assert "import repro" not in source and "from repro" not in source
    assert 0.0 < calibrate.unit() < 1.0


def test_windowed_p50_ignores_a_slow_stretch() -> None:
    from service_load import WINDOW_S, Phase

    phase = Phase(rate=100.0)
    for i in range(1000):  # ten seconds at 100 q/s: five windows
        due = i / 100.0
        slow = 2 * WINDOW_S <= due < 4 * WINDOW_S  # two windows of five
        phase.due_s.append(due)
        phase.latencies_ms.append(30.0 if slow else 9.0)
    assert percentile(phase.latencies_ms, 50) == 9.0
    assert phase.windowed_p50_ms() == 9.0
    phase.latencies_ms[:200] = [30.0] * 200  # a third slow window
    assert phase.windowed_p50_ms() == 30.0


DIGEST_SCRIPT = """
import json
from common import digest
from bench_scale import make_grid
from repro.experiments.store import measurement_to_dict
from repro.sim.straightline import run_batch
from repro.workloads.npb import EP
w = EP(klass="T", nprocs=16)
points = [(strategy, SEED + s) for strategy, s in make_grid(w)]
print(digest([measurement_to_dict(m) for m in run_batch(w, points)]))
"""


def test_measurement_digest_is_stable_across_processes_and_seeds() -> None:
    digests = {
        subprocess.run(
            [sys.executable, "-c", DIGEST_SCRIPT.replace("SEED", str(seed))],
            env=subprocess_env(), capture_output=True, text=True, check=True,
        ).stdout.strip()
        for seed in (0, 0, 7)
    }
    assert len(digests) == 1
    assert digest({"b": 1.0, "a": [0.1]}) == digest({"a": [0.1], "b": 1.0})


TRACE_SCRIPT = """
import json
from spans import install
tracer = install()
from repro.core.framework import run_workload
from repro.core.strategies import ExternalStrategy
from repro.workloads import get_workload
m = run_workload(get_workload("EP", klass="T"), ExternalStrategy(mhz=600))
print(json.dumps({"counters": dict(tracer.counters),
                  "names": sorted({s[2] for s in tracer.spans}),
                  "elapsed": m.elapsed_s.hex()}))
"""


def test_tracer_sees_calls_made_through_the_programs_callers() -> None:
    out = subprocess.run(
        [sys.executable, "-c", TRACE_SCRIPT], env=subprocess_env(),
        capture_output=True, text=True, check=True,
    ).stdout
    seen = json.loads(out)
    # run_workload -> try_run_straightline -> run_straightline ->
    # compile_workload / _lower_gear_actions, all by module lookup.
    assert {"scalar", "compile", "lower"} <= set(seen["names"])
    assert seen["counters"]["scalar.calls"] == 1
    assert seen["counters"]["compile.compiled"] == 1


def test_every_declared_metric_is_emitted_with_its_unit() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER

    r = run.Run("campaign", 0, 1, ROOT)
    for key in ("setup_s", "cold_s", "warm_s"):
        for raw in (1.0, 2.0, 6.0):
            r.add(key, raw, raw / 2)
    r.rss_mb += [50.0, 80.0]
    assert set(run.end_to_end(r)) == set(run.END_TO_END)
    # Reported times are the medians of the reported (scaled) samples.
    assert run.end_to_end(r)["cold_s"] == 1.0
    assert run.end_to_end(r)["peak_rss_mb"] == 80.0
    r.dumps.append({"window": [0.0, 1.0], "counters": {"compile.calls": 1},
                    "reasons": {}, "spans": []})
    assert set(run.per_layer(r, 0.1)) == set(run.PER_LAYER)


def test_server_stop_reaps_and_reads_its_own_peak_rss() -> None:
    from service_load import Server

    # Allocates ~64 MB, then waits to be interrupted, like ``serve``.
    code = ("import sys, time; b = bytearray(64 << 20); b[::4096] = b'x' * len(b[::4096]);"
            " print(flush=True); time.sleep(60)")
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE)
    proc.stdout.readline()
    proc.stdout.close()
    server = Server(proc, 0, 0.0)
    server.stop()
    assert proc.returncode is not None and proc.poll() is not None
    assert 64 <= server.rss_mb < 1024
    server.stop()  # a second stop is a no-op
