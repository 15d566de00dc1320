"""Pure helpers shared by the benchmark's orchestrator, children and tests.

Nothing here imports ``repro``: the orchestrator stays light, and the
helpers are testable without the simulator.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Iterable, Sequence


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``).

    The smallest sample with at least ``q`` percent of the samples at or
    below it, so the value is always one that was measured.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def interval_union(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of half-open ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are dicts with ``id``, ``parent`` (``None`` at the top),
    ``start`` and ``end``; a child's interval is clipped to its parent's.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            children.setdefault(parent["id"], []).append(
                (max(s["start"], parent["start"]), min(s["end"], parent["end"]))
            )
    return {
        s["id"]: (s["end"] - s["start"]) - interval_union(children.get(s["id"], ()))
        for s in spans
    }


def layer_summary(dumps: Iterable[dict]) -> tuple[dict[str, float], float, float]:
    """Aggregate span dumps of one or more processes.

    Returns ``(self seconds by span name, traced wall seconds, seconds
    of that wall covered by no span)``.  Each dump carries its own
    measured ``window``; top-level spans of different threads may
    overlap, so coverage is their union.
    """
    by_name: dict[str, float] = {}
    wall = uncovered = 0.0
    for dump in dumps:
        spans = dump["spans"]
        w0, w1 = dump["window"]
        own = self_times(spans)
        for s in spans:
            by_name[s["name"]] = by_name.get(s["name"], 0.0) + own[s["id"]]
        top = [
            (max(s["start"], w0), min(s["end"], w1))
            for s in spans
            if s["parent"] is None and s["end"] > w0 and s["start"] < w1
        ]
        wall += w1 - w0
        uncovered += (w1 - w0) - interval_union(top)
    return by_name, wall, uncovered


def backlog_grows(outstanding: Sequence[int]) -> bool:
    """Whether a ladder step's queue kept growing while it was offered.

    ``outstanding`` holds the requests in flight, sampled at every send.
    Below capacity the count hovers around rate x latency (Little's
    law) and a stall only lifts it for a while; above capacity it climbs
    for the whole step.  The step counts as growing when the median of
    its last third exceeds the median of its first third by more than
    5% of the requests the step offered (and by more than two).
    """
    n = len(outstanding)
    if n < 3:
        return False
    third = n // 3
    first = statistics.median(outstanding[:third])
    last = statistics.median(outstanding[-third:])
    return last - first > max(2.0, 0.05 * n)


def digest(payload) -> str:
    """SHA-256 of a JSON-able value in canonical form (floats keep every bit)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
