"""Strategy interface shared by the three scheduling approaches."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.hardware.cluster import Cluster
from repro.hardware.node import Node
from repro.sim.events import Interrupt
from repro.workloads.base import NO_HOOKS, PhaseHooks, Workload

__all__ = ["GearPlan", "SampledController", "Strategy", "NoDvsStrategy"]


@dataclass(frozen=True)
class GearPlan:
    """A strategy's DVS behaviour, lowered to static data.

    A gear plan states — as a deterministic, data-independent function
    of (rank, phase) — every operating point the strategy will ever set:
    the per-rank speed applied during :meth:`Strategy.setup` and the
    exact ``set_cpuspeed`` calls its hooks would issue at each hook
    site.  Strategies that can produce one (no-DVS, EXTERNAL, both
    INTERNAL policy shapes) qualify for the piecewise-static
    straightline tier (:mod:`repro.sim.straightline`); strategies whose
    speed choices depend on simulation state (daemons, predictive
    schedulers) cannot, and return ``None`` from
    :meth:`Strategy.gear_plan`.

    Attributes
    ----------
    start_mhz:
        Homogeneous frequency set at setup time (``None`` = leave every
        node at the cluster default, the fastest point).
    start_mhz_per_rank:
        Heterogeneous setup frequencies, one per participating rank
        (mutually exclusive with ``start_mhz``).
    init_calls:
        Per-rank tuple of ``set_cpuspeed`` MHz arguments issued from the
        ``on_init`` hook (empty = the strategy has no init hook call).
    begin_calls / end_calls:
        ``(phase, (mhz, ...))`` pairs: the ``set_cpuspeed`` calls issued
        when the named phase begins / ends on any rank.
    rank_begin_calls / rank_end_calls:
        ``(phase, ((mhz, ...) per rank))`` pairs: heterogeneous phase
        calls — the calls a *specific rank* issues when the named phase
        begins / ends on it.  This is the shape the optimizer's
        per-rank-group, per-phase plans lower to; ranks the table
        covers take precedence over the homogeneous
        ``begin_calls``/``end_calls`` entry for the same phase.
    """

    start_mhz: Optional[float] = None
    start_mhz_per_rank: Optional[tuple[float, ...]] = None
    init_calls: tuple[tuple[float, ...], ...] = ()
    begin_calls: tuple[tuple[str, tuple[float, ...]], ...] = ()
    end_calls: tuple[tuple[str, tuple[float, ...]], ...] = ()
    rank_begin_calls: tuple[
        tuple[str, tuple[tuple[float, ...], ...]], ...
    ] = ()
    rank_end_calls: tuple[
        tuple[str, tuple[tuple[float, ...], ...]], ...
    ] = ()

    @property
    def static(self) -> bool:
        """Whether the plan performs no in-run DVS calls at all."""
        return not (
            any(self.init_calls)
            or any(calls for _, calls in self.begin_calls)
            or any(calls for _, calls in self.end_calls)
            or any(
                any(per_rank)
                for _, per_rank in self.rank_begin_calls + self.rank_end_calls
            )
        )

    def calls_at(self, kind: str, phase: str, rank: int) -> tuple[float, ...]:
        """The ``set_cpuspeed`` MHz calls at one hook site."""
        if kind == "init":
            return self.init_calls[rank] if self.init_calls else ()
        rank_table = (
            self.rank_begin_calls if kind == "begin" else self.rank_end_calls
        )
        for name, per_rank in rank_table:
            if name == phase:
                return per_rank[rank]
        table = self.begin_calls if kind == "begin" else self.end_calls
        for name, calls in table:
            if name == phase:
                return calls
        return ()


@dataclass(frozen=True)
class SampledController:
    """A daemon strategy's policy: a stateful poll-driven controller.

    Daemons (CPUSPEED, the predictive scheduler, the β daemon, the
    power-cap coordinator) cannot publish a :class:`GearPlan` — their
    speed choices depend on observed state — but their *control
    structure* is static: wake every ``interval_s`` seconds, read one
    per-node window observation, update explicit carried state, and
    issue zero or more ``set_speed_index`` calls.  The controller is
    the only definition of the policy.  Two executors run it: the event
    engine, through the generic daemon runner :meth:`Strategy.setup`
    starts, and the stateful-controller straightline tier
    (:mod:`repro.sim.straightline`), which accumulates the gear-static
    segments between polls without an event heap.

    ``observes`` names the per-node window observation read at each
    poll:

    * ``"busy"`` — ``CpuCore.busy_seconds()`` (an accounting touch);
    * ``"cycles"`` — ``CpuCore.cycles_retired_now()`` (no touch: a
      hardware counter read is not an accounting boundary);
    * ``"power"`` — ``Node.power_w()`` plus the activity key it was
      computed from, as ``(power_w, dyn, mem, nic)`` (no touch).

    **Per-node form** — ``make(now, sample)`` builds one controller per
    node, seeded with the daemon's creation-time observation (the
    straightline tier passes ``(0.0, 0.0)``: the time, and a busy or
    cycle read, at t=0 on a fresh cluster; it declines per-node
    ``"power"`` controllers).  A controller exposes::

        step(now, sample, index, max_index) -> tuple[int, ...]

    returning, in call order, the operating-point indices to pass to
    ``CpuCore.set_speed_index`` at this poll (an index equal to the
    current one is the engine's no-op).  An optional ``bind(opoints,
    power_params)`` hook is called once before the first poll.  On the
    engine, a call that fails (an injected SpeedStep fault) is re-issued
    after each sleep in ``retry_sleeps_s`` in turn, until one succeeds.

    **Global-reduction form** — ``make_global()`` builds one
    cluster-wide controller for coordinator daemons (the power-cap
    budget redistribution).  Each poll gathers every node's sample in
    node order and hands them over::

        decide(now, samples, indices, apply) -> None

    ``samples``/``indices`` are node-ordered lists; ``apply(node,
    target)`` actuates one setpoint immediately and returns whether the
    node is now at ``target`` (``False`` only after an injected
    transition failure; the fault-free straightline tier always returns
    ``True``).  Optional hooks: ``bind(opoints, power_params, nprocs)``
    before the first poll, and ``finish()`` once the run completes — the
    place to publish observable state, so an aborted straightline
    attempt leaves none behind.

    ``start_index`` optionally performs setup-time speed calls (the
    power-cap pre-shed): called as ``start_index(opoints, power_params,
    nprocs)``, it returns the uniform operating-point index every node
    is set to at setup (default: the fastest point, untouched).
    """

    interval_s: float
    make: Optional[Callable[[float, object], object]] = None
    observes: str = "busy"
    make_global: Optional[Callable[[], object]] = None
    start_index: Optional[Callable[..., int]] = None
    retry_sleeps_s: tuple[float, ...] = ()


#: Per-node observation readers on the event engine, by ``observes``.
_OBSERVE = {
    "busy": lambda node: node.cpu.busy_seconds(),
    "cycles": lambda node: node.cpu.cycles_retired_now(),
    "power": lambda node: (
        node.power_w(),
        node.cpu.dyn_activity,
        node.cpu.mem_activity,
        node.cpu.nic_activity,
    ),
}


def _node_daemon(ctl: SampledController, node: Node):
    """Run one node's controller on the event engine until interrupted."""
    cpu = node.cpu
    env = cpu.env
    observe = _OBSERVE[ctl.observes]
    controller = ctl.make(env.now, observe(node))
    bind = getattr(controller, "bind", None)
    if bind is not None:
        bind(cpu.opoints, node.power_params)
    step = controller.step
    max_index = cpu.opoints.max_index
    try:
        while True:
            yield env.timeout(ctl.interval_s)
            for target in step(env.now, observe(node), cpu.index, max_index):
                ok = cpu.set_speed_index(target)
                # Retry a failed (injected) transition.  The clean path
                # never sleeps here, so it adds no events to fault-free
                # runs.
                for sleep in ctl.retry_sleeps_s:
                    if ok:
                        break
                    yield env.timeout(sleep)
                    if cpu.injector is not None:
                        cpu.injector.log.dvs_retries += 1
                    ok = cpu.set_speed_index(target)
    except Interrupt:
        return


def _global_daemon(ctl: SampledController, reduction, nodes: list[Node]):
    """Run a cluster-wide controller on the event engine until interrupted."""
    env = nodes[0].env
    observe = _OBSERVE[ctl.observes]
    cpus = [node.cpu for node in nodes]

    def apply(n: int, target: int) -> bool:
        return cpus[n].set_speed_index(target)

    try:
        while True:
            yield env.timeout(ctl.interval_s)
            samples = [observe(node) for node in nodes]
            reduction.decide(env.now, samples, [c.index for c in cpus], apply)
    except Interrupt:
        return


class Strategy(abc.ABC):
    """A distributed DVS scheduling strategy.

    The framework drives a strategy through three touch points:

    * :meth:`hooks` — instrumentation handed to the workload program
      (only the INTERNAL strategy uses this; it is how ``set_cpuspeed``
      calls are "inserted into the source", Figure 3).
    * :meth:`setup` — before the job starts: set static frequencies
      (EXTERNAL) or start the :meth:`controller`'s daemon processes
      (CPUSPEED and the other daemons).
    * :meth:`teardown` — after the job: stop daemons.
    """

    #: short display name, e.g. ``"cpuspeed"``; also names the daemon
    #: processes (``"cpuspeed@3"``, or ``"powercap"`` for a global one).
    name: str = "?"
    _daemons: Sequence = ()
    _reduction: object = None

    def hooks(self, workload: Workload) -> PhaseHooks:
        """Source-level instrumentation (default: none)."""
        return NO_HOOKS

    def gear_plan(self, workload: Optional[Workload] = None) -> Optional[GearPlan]:
        """Lower this strategy's DVS behaviour to a :class:`GearPlan`.

        ``workload`` is required to lower hook calls (the plan names the
        workload's phases); plans with no hook calls (no-DVS, EXTERNAL)
        ignore it.  Returns ``None`` when the strategy's speed choices
        depend on simulation state — daemons, predictive schedulers —
        which keeps such runs on the event engine.  The default is
        conservative: ``None``.
        """
        return None

    def controller(self) -> Optional[SampledController]:
        """This strategy's daemon policy, as a :class:`SampledController`.

        ``None`` (the default) means the strategy runs no daemon.
        Daemons — per-node (CPUSPEED, predictive, β) or
        coordinator-style via the global-reduction form (power-cap) —
        are defined by their controller alone: the default
        :meth:`setup` runs it on the event engine, and the straightline
        tier's stateful-controller executor runs it without one.
        """
        return None

    def is_static(self) -> bool:
        """Whether this strategy leaves operating points fixed after setup.

        Delegates to :meth:`gear_plan`: a strategy is static exactly
        when it has a workload-independent gear plan with no in-run
        ``set_cpuspeed`` calls — so this predicate can never diverge
        from the plan the straightline tier executes.
        """
        plan = self.gear_plan(None)
        return plan is not None and plan.static

    def setup(self, cluster: Cluster, node_ids: Sequence[int]) -> None:
        """Prepare the participating nodes before launch.

        The default starts the :meth:`controller`'s daemon, if any:
        the ``start_index`` speed calls, then one process per node in
        node order (or one for the global form).
        """
        ctl = self.controller()
        if ctl is None:
            return
        nodes = [cluster[nid] for nid in node_ids]
        if ctl.start_index is not None:
            index = ctl.start_index(
                cluster.opoints, nodes[0].power_params, len(nodes)
            )
            for node in nodes:
                node.cpu.set_speed_index(index)
        env = cluster.env
        if ctl.make_global is not None:
            self._reduction = ctl.make_global()
            bind = getattr(self._reduction, "bind", None)
            if bind is not None:
                bind(cluster.opoints, nodes[0].power_params, len(nodes))
            gen = _global_daemon(ctl, self._reduction, nodes)
            self._daemons = [env.process(gen, name=self.name)]
        else:
            self._daemons = [
                env.process(_node_daemon(ctl, node), name=f"{self.name}@{nid}")
                for nid, node in zip(node_ids, nodes)
            ]

    def teardown(self, cluster: Cluster) -> None:
        """Undo :meth:`setup` after the job completes.

        The default stops the daemon processes and lets a global
        controller publish its observable state.
        """
        for proc in self._daemons:
            if proc.is_alive:
                proc.interrupt("stop")
        self._daemons = ()
        finish = getattr(self._reduction, "finish", None)
        self._reduction = None
        if finish is not None:
            finish()

    def describe(self) -> str:
        """One-line human description for reports."""
        return self.name

    def __repr__(self) -> str:
        return f"<Strategy {self.describe()}>"


class NoDvsStrategy(Strategy):
    """Baseline: every node pinned at the highest operating point.

    This is the paper's normalization reference ("energy and delay
    values without any DVS activity").
    """

    name = "no-dvs"

    def gear_plan(self, workload: Optional[Workload] = None) -> Optional[GearPlan]:
        return GearPlan()

    def setup(self, cluster: Cluster, node_ids: Sequence[int]) -> None:
        for nid in node_ids:
            cluster[nid].cpu.set_speed_index(cluster.opoints.max_index)
