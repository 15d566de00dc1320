"""Chaos matrix: every scheduling strategy × every fault class.

Property under test: whatever faults are injected, every strategy
completes the workload with finite metrics — no hangs, no crashes, no
NaNs — and the whole matrix is deterministic under a fixed fault seed.
"""

from __future__ import annotations

import math

import pytest

from repro.core import run_workload
from repro.core.strategies import (
    BetaConfig,
    BetaDaemonStrategy,
    CpuspeedConfig,
    CpuspeedDaemonStrategy,
    ExternalStrategy,
    InternalStrategy,
    PhasePolicy,
    PowerCapConfig,
    PowerCapStrategy,
    PredictiveDaemonStrategy,
)
from repro.core.strategies.auto import derive_phase_policy, profile_workload
from repro.faults import FaultSpec
from repro.workloads import get_workload

#: One spec per fault class; rates deliberately extreme so every cell
#: of the matrix actually exercises its perturbed code path.
FAULTS = {
    "transition-failure": FaultSpec(seed=5, transition_fail_rate=0.7),
    "node-slowdown": FaultSpec(seed=5, node_slowdown_rate=0.6,
                               node_slowdown_factor=1.8),
    "sensor-dropout": FaultSpec(seed=5, sensor_dropout_rate=0.9,
                                sensor_noise_mwh=2.0),
    "crash-and-drop": FaultSpec(seed=5, node_crash_rate=0.5,
                                node_crash_window_s=0.3, node_reboot_s=0.05,
                                message_drop_rate=0.3,
                                message_jitter_rate=0.3,
                                collective_jitter_rate=0.5),
}


def _auto_strategy():
    """The paper's automated-INTERNAL pipeline, derived from a profile."""
    profile = profile_workload(get_workload("FT", klass="T", nprocs=8))
    policy = derive_phase_policy(profile)
    assert policy is not None  # FT's alltoall qualifies by construction
    return InternalStrategy(policy, label="auto-internal")


STRATEGIES = {
    "nodvs": lambda: None,
    "cpuspeed": lambda: CpuspeedDaemonStrategy(CpuspeedConfig.v1_1()),
    "external": lambda: ExternalStrategy(mhz=800),
    "internal": lambda: InternalStrategy(
        PhasePolicy({"alltoall"}, low_mhz=600.0, high_mhz=1400.0)
    ),
    "auto": _auto_strategy,
    "powercap": lambda: PowerCapStrategy(
        PowerCapConfig(cap_w=160.0, interval_s=0.05)
    ),
    "predictive": lambda: PredictiveDaemonStrategy(),
    # polled densely enough to act within FT.T's half-second run
    "beta": lambda: BetaDaemonStrategy(BetaConfig(interval_s=0.05)),
}


def _assert_finite(m):
    assert math.isfinite(m.elapsed_s) and m.elapsed_s > 0
    assert math.isfinite(m.energy_j) and m.energy_j > 0
    assert all(math.isfinite(e) for e in m.per_node_energy_j.values())
    assert m.dvs_transitions >= 0
    assert all(math.isfinite(s) and s >= 0 for s in m.time_at_mhz.values())
    if m.acpi_energy_j is not None:
        assert math.isfinite(m.acpi_energy_j)
    if m.baytech_energy_j is not None:
        assert math.isfinite(m.baytech_energy_j)


def _cell(strategy_key, fault_key):
    workload = get_workload("FT", klass="T", nprocs=8)
    return run_workload(
        workload,
        STRATEGIES[strategy_key](),
        faults=FAULTS[fault_key],
        # sensors only exist with the measurement channels on; keep them
        # on everywhere so dropout cells measure something.
        measurement_channels=True,
    )


@pytest.mark.parametrize("fault_key", sorted(FAULTS))
@pytest.mark.parametrize("strategy_key", sorted(STRATEGIES))
def test_cell_completes_with_finite_metrics(strategy_key, fault_key):
    m = _cell(strategy_key, fault_key)
    _assert_finite(m)
    # extras is either absent (no fault happened to fire) or counts > 0
    if m.extras:
        assert sum(m.extras["faults"].values()) > 0


def test_sensor_dropout_cells_still_report_energy():
    """Dropout at rate 0.9 starves ACPI; the Baytech fallback fills in."""
    m = _cell("external", "sensor-dropout")
    assert m.acpi_energy_j is not None
    assert math.isfinite(m.acpi_energy_j) and m.acpi_energy_j > 0
    assert m.extras["faults"]["sensor_dropouts"] > 0


def test_matrix_cell_is_deterministic():
    a = _cell("cpuspeed", "crash-and-drop")
    b = _cell("cpuspeed", "crash-and-drop")
    a.trace = a.report = b.trace = b.report = None
    assert a == b
