"""Golden pin of the event engine's fault path.

The chaos matrix only proves that faulty runs finish with finite,
repeatable metrics; nothing there would notice if a daemon started
reacting differently to a failed transition (retrying where it did
not, or projecting a shed step that never happened).  This test pins
the exact bits of each daemon under the chaos matrix's
``transition-failure`` and ``crash-and-drop`` specs against values
recorded from the reference engine: every ``Measurement`` field but
the trace/report objects, the fault log (``dvs_retries`` included),
and the power-cap coordinator's ``power_samples``.

Regenerate the golden file only for a deliberate model change::

    PYTHONPATH=src:. python -m tests.faults.test_fault_path_golden
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import run_workload
from repro.core.strategies import (
    BetaConfig,
    BetaDaemonStrategy,
    CpuspeedConfig,
    CpuspeedDaemonStrategy,
    PowerCapConfig,
    PowerCapStrategy,
    PredictiveConfig,
    PredictiveDaemonStrategy,
)
from repro.workloads import get_workload

from tests.faults.test_chaos_matrix import FAULTS

GOLDEN = Path(__file__).with_name("fault_path_golden.json")

#: The shipped presets, plus dense-poll variants: FT.T runs about half
#: a second, less than one v1.2.1 or β default interval, so only the
#: dense variants make their rules (and the faults) act mid-run.
STRATEGIES = {
    "cpuspeed-v1.1": lambda: CpuspeedDaemonStrategy(CpuspeedConfig.v1_1()),
    "cpuspeed-v1.2.1": lambda: CpuspeedDaemonStrategy(CpuspeedConfig.v1_2_1()),
    "cpuspeed-v1.2.1@50ms": lambda: CpuspeedDaemonStrategy(
        replace(CpuspeedConfig.v1_2_1(), interval_s=0.05)
    ),
    "predictive": PredictiveDaemonStrategy,
    "predictive@20ms": lambda: PredictiveDaemonStrategy(
        PredictiveConfig(interval_s=0.02)
    ),
    "beta": BetaDaemonStrategy,
    "beta@50ms": lambda: BetaDaemonStrategy(BetaConfig(interval_s=0.05)),
    # 8 nodes under 200 W: the setup pre-shed starts below the top
    # gear, and reactive raises overshoot the cap, so the coordinator
    # sheds (through failed steps, under transition faults) as well.
    "powercap": lambda: PowerCapStrategy(
        PowerCapConfig(cap_w=200.0, interval_s=0.05, conservative_raise=False)
    ),
}
FAULT_KEYS = ("transition-failure", "crash-and-drop")


def observe(strategy_key: str, fault_key: str) -> dict:
    """One cell's pinned observables, in JSON-stable form."""
    strategy = STRATEGIES[strategy_key]()
    m = run_workload(
        get_workload("FT", klass="T", nprocs=8),
        strategy,
        faults=FAULTS[fault_key],
        measurement_channels=True,
        engine="event",
    )
    cell = {
        "workload": m.workload,
        "strategy": m.strategy,
        "elapsed_s": m.elapsed_s,
        "energy_j": m.energy_j,
        "per_node_energy_j": {str(k): v for k, v in m.per_node_energy_j.items()},
        "dvs_transitions": m.dvs_transitions,
        "time_at_mhz": {repr(k): v for k, v in m.time_at_mhz.items()},
        "acpi_energy_j": m.acpi_energy_j,
        "baytech_energy_j": m.baytech_energy_j,
        "extras": m.extras,
    }
    if isinstance(strategy, PowerCapStrategy):
        cell["power_samples"] = [list(s) for s in strategy.power_samples]
    return cell


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("fault_key", FAULT_KEYS)
@pytest.mark.parametrize("strategy_key", sorted(STRATEGIES))
def test_fault_path_matches_golden(strategy_key: str, fault_key: str) -> None:
    expected = _golden()[f"{strategy_key}/{fault_key}"]
    # A JSON round trip preserves every float exactly (repr), so ``==``
    # here is bit equality.
    got = json.loads(json.dumps(observe(strategy_key, fault_key)))
    for field, value in expected.items():
        assert got[field] == value, field
    assert set(got) == set(expected)


def test_golden_cells_exercise_the_fault_path() -> None:
    # The pin is only worth something if the faults actually bite:
    # transitions fail, cpuspeed retries them (and only cpuspeed), and
    # the power-cap cells shed while over budget.
    golden = _golden()
    acting = ("cpuspeed-v1.2.1@50ms", "predictive@20ms", "beta@50ms", "powercap")
    for key in acting:
        faults = golden[f"{key}/transition-failure"]["extras"]["faults"]
        assert faults["transitions_failed"] > 0, key
    faults = golden["cpuspeed-v1.2.1@50ms/transition-failure"]["extras"]["faults"]
    assert faults["dvs_retries"] > 0
    for key in STRATEGIES:
        if key.startswith("cpuspeed"):
            continue
        for fault_key in FAULT_KEYS:
            faults = golden[f"{key}/{fault_key}"]["extras"].get("faults", {})
            assert faults.get("dvs_retries", 0) == 0, (key, fault_key)
    samples = golden["powercap/transition-failure"]["power_samples"]
    assert max(p for _t, p in samples) > 200.0  # over budget: it shed


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {
                f"{s}/{f}": observe(s, f)
                for s in sorted(STRATEGIES)
                for f in FAULT_KEYS
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
