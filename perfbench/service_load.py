"""Open-loop TCP load against a ``repro-experiments serve -j 1`` subprocess.

Requests leave on a fixed, seeded schedule whether or not earlier ones
have returned, so a stalled server makes every later request wait too:
each latency is timed from when the request was *due*, not from when the
generator got round to sending it, and the generator's own lateness is
reported.  One process drives two connections (the machine's two cores
are shared with the server).

The mix is mostly ``sweep`` requests over rotating frequency subsets of
FT, CG and EP at class T, with one request in 16 an ``advise``.  Every
50th request uses a seed no earlier request used, so its points miss
the cache and simulation stays on the request path.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from calibrate import Reference, slowdown
from common import backlog_grows, percentile

CODES = ("FT", "CG", "EP")
FREQS = (600.0, 800.0, 1000.0, 1200.0, 1400.0)
SUBSETS = (FREQS, FREQS[:3], FREQS[2:], (FREQS[0], FREQS[-1]))
ADVISE_EVERY = 16
FRESH_EVERY = 50
CONNECTIONS = 2
#: Independent users: requests rotate over this many tenants, so the
#: per-tenant in-flight quota is not what limits the ladder.
TENANTS = 64

#: The fixed rate stays far below capacity even when the shared host runs
#: two to three times slower than usual: at 200 q/s such a host has the
#: server half busy, and queueing made the p50 swing from 10 to 70 ms
#: between runs.
FIXED_RATE = 100.0
LADDER = (300.0, 450.0, 600.0, 750.0)
#: Shares of the run's ``--seconds`` spent at the fixed rate and on each
#: ladder step (20 s and 3.75 s of a 25 s run).
FIXED_SHARE = 0.8
STEP_SHARE = 0.15
#: Windows (by due time) of the fixed-rate phase whose p50s give
#: ``Phase.windowed_p50_ms``.
WINDOW_S = 2.0
#: p99 limit (from due time) a ladder step must meet to count as sustained.
P99_LIMIT_MS = 400.0
DRAIN_TIMEOUT_S = 20.0


def request_schedule(seed: int, count: int, offset: int = 0) -> list[dict]:
    """The ``count`` requests of a phase: a pure function of ``seed``.

    The seed picks each plain sweep's workload and frequency subset and
    the fresh seeds; advise and fresh-seed requests rotate over the codes
    in a fixed order, and a fresh-seed sweep always covers every
    frequency, so every schedule carries the same slow tail.
    """
    rng = random.Random(seed * 1_000_003 + offset)
    out = []
    for i in range(offset, offset + count):
        tenant = f"user-{i % TENANTS}"
        if i % ADVISE_EVERY == ADVISE_EVERY - 1:
            code = CODES[(i // ADVISE_EVERY) % len(CODES)]
            out.append({"op": "advise", "tenant": tenant,
                        "params": {"workload": code, "klass": "T"}})
            continue
        params = {
            "workload": rng.choice(CODES),
            "klass": "T",
            "frequencies_mhz": list(rng.choice(SUBSETS)),
        }
        if i % FRESH_EVERY == FRESH_EVERY - 1:
            params["workload"] = CODES[(i // FRESH_EVERY) % len(CODES)]
            params["frequencies_mhz"] = list(FREQS)
            params["seed"] = 1 + seed * 1_000_000 + i
        out.append({"op": "sweep", "tenant": tenant, "params": params})
    return out


def priming_requests() -> list[dict]:
    """One full sweep and one advise per code: a fresh deployment's first
    contact with every workload it serves."""
    out = []
    for code in CODES:
        out.append({"op": "sweep", "params": {
            "workload": code, "klass": "T", "frequencies_mhz": list(FREQS)}})
        out.append({"op": "advise", "params": {"workload": code, "klass": "T"}})
    return out


def request_key(request: dict) -> str:
    return json.dumps([request["op"], request["params"]], sort_keys=True)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@dataclass
class Server:
    """A served advisor subprocess; :meth:`stop` always reaps it."""

    proc: subprocess.Popen
    port: int
    setup_s: float
    #: The server's peak RSS, known once :meth:`stop` has reaped it.
    rss_mb: float = 0.0

    def stop(self) -> None:
        """Interrupt the server (``serve`` exits on SIGINT) and reap it.

        The process is reaped with ``wait4`` rather than through
        ``Popen``, to read the server's own peak RSS.
        """
        if self.proc.returncode is not None:
            return
        os.kill(self.proc.pid, signal.SIGINT)
        deadline = time.monotonic() + 15.0
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.kill(self.proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0


def start_server(root: Path, cache_dir: Path, env: dict,
                 trace: Optional[Path] = None) -> Server:
    """Spawn the server and wait until it answers ``ping``.

    ``setup_s`` runs from the spawn to the first answered ping: the
    server's imports, cache warm-up and bind, plus the client's connect.
    With ``trace``, the same CLI runs under ``serve_traced.py``, which
    wraps the layers first and writes the spans when the server stops.
    """
    port = free_port()
    cli = ["serve", "-j", "1", "--port", str(port), "--cache-dir", str(cache_dir)]
    if trace is None:
        cmd = [sys.executable, "-m", "repro.experiments.cli", *cli]
    else:
        cmd = [sys.executable, str(root / "perfbench" / "serve_traced.py"),
               str(trace), *cli]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL)
    server = Server(proc, port, 0.0)
    try:
        deadline = t0 + 60.0
        while True:
            if proc.poll() is not None:
                raise RuntimeError(f"server exited with code {proc.returncode}")
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                    sock.sendall(b'{"id": 0, "op": "ping"}\n')
                    reply = json.loads(sock.makefile("rb").readline())
                if not reply.get("ok"):
                    raise RuntimeError(f"ping failed: {reply}")
                break
            except (OSError, ValueError):
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)
    except BaseException:
        server.stop()
        raise
    server.setup_s = time.perf_counter() - t0
    return server


@dataclass
class Phase:
    """What one scheduled phase observed."""

    rate: float
    sent: int = 0
    latencies_ms: list = field(default_factory=list)
    #: When each answered request was due, in seconds from the first one.
    due_s: list = field(default_factory=list)
    by_op_ms: dict = field(default_factory=lambda: {"sweep": [], "advise": []})
    late_ms: list = field(default_factory=list)
    outstanding: list = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    first_due: float = 0.0
    last_done: float = 0.0
    #: A closed-loop phase's duration in reference seconds.
    scaled_s: float = 0.0

    @property
    def completed(self) -> int:
        return len(self.latencies_ms)

    def p99_ms(self) -> float:
        # A failed request misses every latency limit.
        if self.errors:
            return float("inf")
        return percentile(self.latencies_ms, 99)

    def sustained(self) -> bool:
        return (not backlog_grows(self.outstanding)
                and self.p99_ms() <= P99_LIMIT_MS)

    def windowed_p50_ms(self) -> float:
        """The median over the phase's ``WINDOW_S`` windows of each
        window's p50.

        The shared host's neighbours slow the server for a few seconds
        at a time (with steal time); a median over windows keeps such a
        stretch from moving the figure unless it covers half the phase.
        """
        windows: dict[int, list[float]] = {}
        for due, latency in zip(self.due_s, self.latencies_ms):
            windows.setdefault(int(due // WINDOW_S), []).append(latency)
        return statistics.median(percentile(w, 50) for w in windows.values())

    def duration(self) -> float:
        """From the first request's due time to the last reply."""
        return self.last_done - self.first_due


class LoadClient:
    """Pipelines requests over a few connections; matches replies by id."""

    def __init__(self) -> None:
        self.port = 0
        self.conns: list[tuple] = []
        self.pending: dict[int, tuple] = {}
        #: request key -> {canonical answer: times seen}
        self.answers: dict[str, Counter] = {}
        self._ids = 0
        self._readers: list[asyncio.Task] = []
        self._drained: Optional[asyncio.Event] = None

    async def connect(self, port: int) -> None:
        self.port = port
        self._drained = asyncio.Event()
        self._drained.set()
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            self.conns.append((reader, writer))
            self._readers.append(asyncio.create_task(self._read(reader)))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            done = time.perf_counter()
            response = json.loads(line)
            due, request, phase = self.pending.pop(response["id"])
            phase.last_done = max(phase.last_done, done)
            if response.get("ok"):
                latency = (done - due) * 1e3
                phase.latencies_ms.append(latency)
                phase.due_s.append(due - phase.first_due)
                phase.by_op_ms[request["op"]].append(latency)
                self.answers.setdefault(request_key(request), Counter())[
                    json.dumps(response["result"], sort_keys=True)] += 1
            else:
                phase.errors[response["error"]["code"]] += 1
            if not self.pending:
                self._drained.set()

    def send(self, request: dict, due: float, phase: Phase) -> None:
        self._ids += 1
        reader, writer = self.conns[self._ids % len(self.conns)]
        self.pending[self._ids] = (due, request, phase)
        self._drained.clear()
        phase.sent += 1
        writer.write((json.dumps({"id": self._ids, **request}) + "\n").encode())

    async def run_phase(self, requests: list[dict], rate: float) -> Phase:
        """Send ``requests`` at ``rate`` per second, then wait for replies."""
        phase = Phase(rate=rate)
        start = time.perf_counter() + 0.01
        phase.first_due = start
        for i, request in enumerate(requests):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.late_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
            phase.outstanding.append(len(self.pending))
            self.send(request, due, phase)
        for _, writer in self.conns:
            await writer.drain()
        await asyncio.wait_for(self._drained.wait(), DRAIN_TIMEOUT_S)
        return phase

    async def closed_loop(self, requests: list[dict], ref: Reference) -> Phase:
        """One request at a time (the priming pass), then a reference
        burst that scales its duration into ``phase.scaled_s``."""
        phase = Phase(rate=0.0)
        before = ref.last
        phase.first_due = time.perf_counter()
        for request in requests:
            self.send(request, time.perf_counter(), phase)
            await asyncio.wait_for(self._drained.wait(), DRAIN_TIMEOUT_S)
        phase.scaled_s = ref.scaled(phase.duration(), before)
        return phase

    async def stats(self) -> dict:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            writer.write(b'{"id": 0, "op": "stats"}\n')
            await writer.drain()
            return json.loads(await reader.readline())["result"]
        finally:
            writer.close()
            await writer.wait_closed()

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
            await writer.wait_closed()
        await asyncio.gather(*self._readers)


async def drive(port: int, seed: int, seconds: float, ref: Reference,
                ladder: bool) -> dict:
    """Priming, the fixed-rate phase, then (with ``ladder``) the ladder
    until a step fails.

    The priming is timed raw and in reference seconds (``ref``'s latest
    burst ran just before it).  Latencies stay raw: half the p50 is the
    service's fixed 5 ms batching window, which no host speed scales.
    """
    client = LoadClient()
    await client.connect(port)
    try:
        cold = await client.closed_loop(priming_requests(), ref)
        count = int(FIXED_RATE * FIXED_SHARE * seconds)
        fixed = await client.run_phase(request_schedule(seed, count), FIXED_RATE)
        offset = count
        steps = []
        for rate in LADDER if ladder else ():
            count = int(rate * STEP_SHARE * seconds)
            step = await client.run_phase(request_schedule(seed, count, offset), rate)
            offset += count
            steps.append(step)
            if not step.sustained():
                break
        stats = await client.stats()
    finally:
        await client.close()
    return {"cold": cold, "fixed": fixed, "ladder": steps,
            "stats": stats, "answers": client.answers}


@functools.lru_cache(maxsize=None)
def library_answer(key: str) -> str:
    """The serial, uncached library answer for a request, as on the wire."""
    from repro.core import ScheduleAdvisor
    from repro.experiments.parallel import ParallelRunner, use
    from repro.experiments.runner import frequency_sweep
    from repro.service import advice_to_dict, sweep_to_payload
    from repro.service.protocol import resolve_metric
    from repro.workloads import get_workload

    op, params = json.loads(key)
    workload = get_workload(params["workload"], klass=params["klass"])
    seed = params.get("seed", 0)
    with use(ParallelRunner(jobs=1, memo=False)):
        if op == "sweep":
            payload = sweep_to_payload(frequency_sweep(
                workload, frequencies_mhz=params["frequencies_mhz"], seed=seed))
        else:
            payload = advice_to_dict(ScheduleAdvisor(
                metric=resolve_metric(None), seed=seed).advise(workload))
    return json.dumps(json.loads(json.dumps(payload)), sort_keys=True)


def run_cycle(root: Path, work: Path, env: dict, seed: int, seconds: float,
              trace: Optional[Path] = None, ladder: bool = False) -> dict:
    """One server lifetime under the whole load; the server is always reaped.

    Beside a traced server the generator runs no reference bursts.
    """
    ref = Reference(active=trace is None)
    # The set-up is scaled by a burst before the spawn: right after the
    # first ping the server is still busy, and would slow a burst then.
    before = ref.burst()
    server = start_server(root, work / f"svc-cache-{time.monotonic_ns()}", env, trace)
    try:
        setup = [server.setup_s, server.setup_s / slowdown(before)]
        result = asyncio.run(drive(server.port, seed, seconds, ref, ladder))
    finally:
        server.stop()
    result.update(setup_s=setup, rss_mb=server.rss_mb)
    return result


def probe(root: Path, cache_dir: Path, env: dict) -> dict:
    """Start a fresh server, answer the priming requests, stop it.

    Returns the set-up time (raw and in reference seconds), the priming
    phase, its answers and the server's peak RSS.
    """
    client = LoadClient()
    ref = Reference()

    async def prime(port: int) -> Phase:
        await client.connect(port)
        try:
            return await client.closed_loop(priming_requests(), ref)
        finally:
            await client.close()

    before = ref.burst()
    server = start_server(root, cache_dir, env)
    try:
        setup = [server.setup_s, server.setup_s / slowdown(before)]
        cold = asyncio.run(prime(server.port))
    finally:
        server.stop()
    return {"setup_s": setup, "cold": cold, "answers": client.answers,
            "rss_mb": server.rss_mb}
