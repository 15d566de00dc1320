"""Gear-plan lowering by rank group, against the per-rank oracle.

``_lower_gear_actions`` resolves each hook site once per plan and walks
the markers once per distinct (body group, plan column).  The oracle
below is the direct definition: every rank walks its own markers and
asks :meth:`GearPlan.calls_at` at each one.  Both must agree on every
generated plan — homogeneous begin/end tables, per-rank tables that
override them, duplicate phase entries (the first wins), ``init_calls``,
inexact MHz values and tables too short for the rank count — and raise
:class:`CompileError` for exactly the same plans.
"""

from __future__ import annotations

import inspect
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.strategies.base import GearPlan
from repro.hardware.opoints import PENTIUM_M_TABLE
from repro.optimize import optimize_gear_plan
from repro.optimize.plan import OptimalPlanStrategy
from repro.sim.straightline import (
    _ACTIONS_CACHE,
    _ACTIONS_CACHE_CAP,
    _lower_gear_actions,
    lowering_cache_counters,
    run_batch,
)
from repro.workloads.compile import CompileError, compile_workload
from repro.workloads.npb.cg import CG
from repro.workloads.npb.ft import FT
from repro.workloads.npb.mg import MG
from repro.workloads.phases import Loop, Phase, PhaseProgramWorkload

MHZS = tuple(op.frequency_mhz for op in PENTIUM_M_TABLE)


def _stencil(nprocs: int) -> PhaseProgramWorkload:
    """A phase program with three rank groups (imbalanced compute)."""
    return PhaseProgramWorkload(
        "STENCIL",
        [
            Phase.compute("init", seconds=0.01),
            Loop(3, [
                Phase.compute(
                    "solve", seconds=0.01,
                    rank_scale=lambda rank, size: 1.0 + 0.1 * (rank % 3),
                ),
                Phase.collective("sum", kind="allreduce", nbytes=8),
            ]),
        ],
        nprocs=nprocs,
        klass="T",
    )


# FT takes any N >= 2, CG an even N, MG a power of two; the phase
# program takes any N >= 1, so it carries the odd sizes the NPB
# models cannot build.
SHAPES = (
    [("FT", n) for n in (3, 5, 17, 64)]
    + [("CG", n) for n in (2, 6, 18, 64)]
    + [("MG", n) for n in (2, 4, 16, 64)]
    + [("STENCIL", n) for n in (1, 3, 5, 17, 64)]
)
_MAKERS = {
    "FT": lambda n: FT(klass="T", nprocs=n),
    "CG": lambda n: CG(klass="T", nprocs=n),
    "MG": lambda n: MG(klass="T", nprocs=n),
    "STENCIL": _stencil,
}
_PROGRAMS: dict = {}


def program(shape):
    """``(workload, compiled)`` per shape, compiled once per module."""
    if shape not in _PROGRAMS:
        workload = _MAKERS[shape[0]](shape[1])
        _PROGRAMS[shape] = (
            workload,
            compile_workload(workload, PENTIUM_M_TABLE.fastest.frequency_hz),
        )
    return _PROGRAMS[shape]


def oracle(compiled, plan, opoints):
    """Per-rank lowering: ``calls_at`` at every (rank, marker), or None."""
    exact = {p.frequency_mhz: i for i, p in enumerate(opoints)}
    per_rank = []
    try:
        for rank in range(compiled.nprocs):
            acts = []
            for pos, kind, phase in compiled.markers[rank]:
                for mhz in plan.calls_at(kind, phase, rank):
                    idx = exact.get(mhz)
                    if idx is None:
                        idx = opoints.index_of(opoints.by_mhz(mhz))
                    acts.append((pos, idx))
            per_rank.append(acts)
    except (KeyError, IndexError, ValueError):
        return None
    return per_rank


# ----------------------------------------------------------------------
# plan generator
# ----------------------------------------------------------------------
#: table frequencies, the same values off by less than by_mhz's
#: tolerance (the inexact path), and one the table does not carry.
_mhz = st.one_of(
    st.sampled_from(MHZS),
    st.sampled_from(MHZS).map(lambda m: m + 1e-11),
    st.just(1234.5),
)
_calls = st.lists(_mhz, max_size=2).map(tuple)


@st.composite
def plans(draw, workload, nprocs):
    phases = list(workload.phases) + ["unannounced"]
    pool = draw(st.lists(_calls, min_size=1, max_size=3))

    def per_rank_table():
        # Mostly full length; sometimes short (must raise exactly when
        # a rank past the end reaches the site) or long (extra ignored).
        length = draw(st.sampled_from(
            [nprocs] * 4 + [max(nprocs - 1, 0), nprocs // 2, nprocs + 2]
        ))
        by = draw(st.sampled_from(["group", "rank", "parity"]))
        picks = draw(st.lists(
            st.integers(0, len(pool) - 1), min_size=length, max_size=length
        ))
        if by == "group":
            return tuple(pool[picks[0]] for _ in range(length))
        if by == "parity":
            return tuple(pool[picks[r % 2 if length > 1 else 0]]
                         for r in range(length))
        return tuple(pool[p] for p in picks)

    def homogeneous():
        return tuple(
            (draw(st.sampled_from(phases)), draw(_calls))
            for _ in range(draw(st.integers(0, 3)))
        )

    def rank_tables():
        return tuple(
            (draw(st.sampled_from(phases)), per_rank_table())
            for _ in range(draw(st.integers(0, 2)))
        )

    init = per_rank_table() if draw(st.booleans()) else ()
    return GearPlan(
        init_calls=init,
        begin_calls=homogeneous(),
        end_calls=homogeneous(),
        rank_begin_calls=rank_tables(),
        rank_end_calls=rank_tables(),
    )


@st.composite
def cases(draw):
    shape = draw(st.sampled_from(SHAPES))
    workload, compiled = program(shape)
    return compiled, draw(plans(workload, compiled.nprocs))


def _column(compiled, plan, rank):
    sites = dict.fromkeys((k, p) for _pos, k, p in compiled.markers[rank])
    return tuple(plan.calls_at(k, p, rank) for k, p in sites)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_lowering_matches_per_rank_oracle(case) -> None:
    compiled, plan = case
    expected = oracle(compiled, plan, PENTIUM_M_TABLE)
    if expected is None:
        with pytest.raises(CompileError, match="gear plan not executable"):
            _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE)
        return
    got = _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE)
    assert got == expected

    # Sharing: ranks of one body group with equal columns get the
    # identical row object.
    for members in compiled.group_members:
        ranks = members.tolist()
        for a, b in itertools.combinations(ranks[:12], 2):
            if _column(compiled, plan, a) == _column(compiled, plan, b):
                assert got[a] is got[b]
    # Identity stands exactly for content, across groups too (callers
    # key on id(row)): ranks with different rows never share one.
    by_content = {}
    for row in got:
        assert by_content.setdefault(tuple(row), row) is row


def test_rank_tables_override_homogeneous_entries() -> None:
    _, compiled = program(("FT", 5))
    fast, slow = MHZS[-1], MHZS[0]
    plan = GearPlan(
        begin_calls=(("alltoall", (fast,)), ("alltoall", (slow,))),
        rank_begin_calls=(
            ("alltoall", tuple((slow,) if r % 2 else () for r in range(5))),
            ("alltoall", ((fast,),) * 5),
        ),
    )
    got = _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE)
    assert got == oracle(compiled, plan, PENTIUM_M_TABLE)
    assert got[0] == [] and got[2] is got[0]  # () from the first rank table
    assert got[1] and got[3] is got[1]


def test_short_table_only_raises_where_markers_reach() -> None:
    _, compiled = program(("FT", 5))
    # A short table at a phase no marker announces is never read.
    plan = GearPlan(rank_begin_calls=(("unannounced", ((MHZS[0],),)),))
    assert _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE) == [[]] * 5
    short = GearPlan(rank_begin_calls=(("alltoall", ((MHZS[0],),) * 4),))
    with pytest.raises(CompileError):
        _lower_gear_actions(compiled, short, PENTIUM_M_TABLE)


# ----------------------------------------------------------------------
# the lowering cache's memory
# ----------------------------------------------------------------------
def test_cache_holds_group_rows_not_rank_rows() -> None:
    """A full cache of optimizer candidates costs cap x G rows, not cap x N."""
    workload = CG(klass="T", nprocs=64)
    compiled = compile_workload(workload, PENTIUM_M_TABLE.fastest.frequency_hz)
    G, P = compiled.n_groups, len(workload.phases)
    assert G < compiled.nprocs
    group_of = compiled.group_of.tolist()
    tables = itertools.islice(
        itertools.product(MHZS, repeat=G * P), _ACTIONS_CACHE_CAP
    )
    for cells in tables:
        table = [cells[g * P:(g + 1) * P] for g in range(G)]
        plan = OptimalPlanStrategy(group_of, workload.phases, table).gear_plan(
            workload
        )
        _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE)
    entries = _ACTIONS_CACHE[compiled]
    assert len(entries) == _ACTIONS_CACHE_CAP
    rows = {id(row) for per_rank in entries.values() for row in per_rank}
    assert len(rows) <= _ACTIONS_CACHE_CAP * G


def test_scalar_fallback_reuses_the_batch_lowering() -> None:
    """``run_batch``'s scalar fallback re-reads its batch's lowerings.

    The optimizer scores up to ``batch_cap`` fresh plans per
    ``run_batch`` call.  Mixed-speed CG candidates diverge and split
    down to scalar runs, which go through ``run_straightline`` and look
    their plans up again; a cache smaller than the batch would have
    evicted them, and each would be lowered twice.
    """
    batch_cap = inspect.signature(optimize_gear_plan).parameters["batch_cap"]
    assert _ACTIONS_CACHE_CAP >= batch_cap.default

    workload = CG(klass="T", nprocs=4)
    compiled = compile_workload(workload, PENTIUM_M_TABLE.fastest.frequency_hz)
    G, P = compiled.n_groups, len(workload.phases)
    group_of = compiled.group_of.tolist()
    cells = itertools.islice(itertools.product(MHZS, repeat=G * P), 0, None, 7)
    points = [
        (OptimalPlanStrategy(
            group_of, workload.phases,
            [cl[g * P:(g + 1) * P] for g in range(G)],
        ), 0)
        for cl in itertools.islice(cells, 100)
    ]
    assert len(points) > 64  # more than the cache held before
    stats: dict = {}
    _, m0 = lowering_cache_counters()
    run_batch(workload, points, stats=stats)
    _, m1 = lowering_cache_counters()
    assert stats["scalar_points"] > 0
    assert m1 - m0 == len(points)
