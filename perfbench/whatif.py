"""Workload ``whatif``: open-loop HTTP traffic against the what-if service.

An in-process :class:`repro.campaign.service.WhatIfService` (one pool
worker process, no rate limit, a fresh cache directory) is pre-warmed with
a working set of cheap cells drawn by the seed from :data:`catalog`.  The
load generator then sends requests on a schedule, whatever the server's
progress (an open loop), over two keep-alive connections from the same
process:

* **warm** queries (connection 1) draw from the working set with Zipf
  popularity at the offered rate of the current rung, Poisson arrivals;
* **cold** queries (connection 2) come from one client asking for catalog
  cells never seen before, one at a time, :data:`COLD_THINK_SECONDS`
  after each answer (a closed loop), which keeps the one pool worker busy
  without a queue ever forming.  Each runs session -> exec pool -> hpl
  and writes the result cache.

Warm and cold ride separate connections because the server answers the
requests of one connection in order; sharing one would put every warm
answer behind whichever cold query came first.

An untraced run repeats :data:`CYCLES` cycles of three windows: a
warm-only rung (open loop at :data:`REF_RATE`), a mixed rung (the same
warm traffic with the cold stream beside it) and a sequential window (one
warm query at a time).  Warm latency is taken from the warm-only rungs:
on a 2-vCPU host the cold stream's worker process shares the machine with
the event loop, and it moved warm p50 by about 20% between runs where
warm-only windows moved about 3%.  Cold latency comes from the mixed
rungs.  Every request is timed from when it was due to be sent; a non-200
answer counts as an infinite latency.

The traced run measures one mixed rung under spans and the sampler, then
climbs a ladder of open-loop rates.  A rung passes when its warm p99 stays
within :data:`LATENCY_LIMIT_MS` and its warm backlog within
:func:`backlog_limit`; the highest passing rung is ``whatif.max_qps``.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Optional

from harness import Outcome, median, peak_rss_mb, percentile
from tracing import PackageProfile, Tracer, layer_metrics, trace_details

MACHINE_SIZES = {
    "element": (8000, 12000, 16000, 20000),
    "frontier-node": (20000, 40000, 60000, 80000),
}
SCHEDULERS = ("adaptive", "static", "qilin", "acmlg", "acmlg_both", "acmlg_pipe")
FAULTS = ("none", "stragglers-2pct", "gpu-throttle")
REPS = (0, 1, 2)

WORKING_SET = 32  # warm cells, one from each of 32 strata
ZIPF_S = 1.1
REF_RATE = 1000.0  # warm queries per second at the reference rung
COLD_THINK_SECONDS = 0.05  # the cold client's pause between an answer and its next query
#: Shares of --seconds in an untraced run, spread over CYCLES cycles of a
#: warm-only rung, a mixed rung (warm + cold) and a sequential window.
WARM_SHARE, MIXED_SHARE, SEQUENTIAL_SHARE = 0.3, 0.5, 0.15
CYCLES = 8
TRACED_SHARE = 0.35  # of --seconds: the traced run's one mixed rung; the ladder follows
OVERHEAD_PAIRS = 3  # 1 s sequential windows, without and with the sampler
SPIN_SECONDS = 0.002  # the generator yields instead of sleeping this close to a due time
#: Offered warm rates of the ladder: 8% apart from 5000 q/s, so the highest
#: passing rung resolves the service's capacity to within one step.
LADDER = tuple(int(round(5000 * 1.08 ** k, -1)) for k in range(16))
RUNG_SECONDS = 1.0
LATENCY_LIMIT_MS = 100.0

_perf = time.perf_counter


def catalog() -> list[dict[str, Any]]:
    """Every cell the workload may ask about, in a fixed order."""
    cells = []
    for machine, sizes in MACHINE_SIZES.items():
        for scheduler in SCHEDULERS:
            for n in sizes:
                for fault in FAULTS:
                    for rep in REPS:
                        cells.append({"machine": machine, "scheduler": scheduler,
                                      "n": n, "fault": fault, "rep": rep})
    return cells


def cell_id(query: dict[str, Any]) -> str:
    return "{machine}/{scheduler}/n={n}/{fault}/rep={rep}".format(**query)


def draw_cells(seed: int) -> tuple[list[dict], list[dict]]:
    """(working set, cold cells in the order they are asked).

    The catalog splits into (machine, n, scheduler) strata of nine cells
    (fault x repetition).  The working set takes one cell from each of
    :data:`WORKING_SET` strata; the cold sequence visits every stratum in a
    fixed order, round after round, so every seed asks for the same mix
    of machines, sizes and schedulers, which set a cold cell's cost, and
    the seed picks only the faults and repetitions.
    """
    rng = random.Random(f"whatif-cells:{seed}")
    strata: dict[tuple, list[dict]] = {}
    for cell in catalog():
        strata.setdefault((cell["machine"], cell["n"], cell["scheduler"]), []).append(cell)
    # Interleave the machines and sizes, so every stretch of the run sees
    # the whole mix.
    groups = sorted(strata.values(), key=lambda members: (
        MACHINE_SIZES[members[0]["machine"]].index(members[0]["n"]),
        SCHEDULERS.index(members[0]["scheduler"]), members[0]["machine"]))
    for members in groups:
        rng.shuffle(members)
    warm = [members.pop() for members in rng.sample(groups, WORKING_SET)]
    cold = [cell for round_ in zip(*groups) for cell in round_]
    return warm, cold


def backlog_limit(rate: float, duration: float) -> int:
    """Warm backlog a rung may carry: 2% of its requests (at least 25)."""
    return max(25, int(0.02 * rate * duration))


def _request(payload: bytes, path: str = "/query", method: str = "POST") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n"
        f"X-Tenant: perfbench\r\nContent-Length: {len(payload)}\r\n\r\n"
    ).encode() + payload


class Connection:
    """One pipelined keep-alive connection; answers come back in order.

    Each sent request carries a ``(due, on_answer)`` pair;
    ``on_answer(due, status, x_cache, body)`` runs when its answer arrives.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader, self.writer = reader, writer
        self.pending: deque[tuple[float, Callable[..., None]]] = deque()
        self._idle = asyncio.Event()
        self._idle.set()
        self._task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    @property
    def outstanding(self) -> int:
        return len(self.pending)

    def send(self, request: bytes, due: float, on_answer: Callable[..., None]) -> None:
        self.pending.append((due, on_answer))
        self._idle.clear()
        self.writer.write(request)

    async def _read_loop(self) -> None:
        reader = self.reader
        while True:
            line = await reader.readline()
            if not line:
                break
            status = int(line.split()[1])
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode().partition(":")
                headers[name.strip().lower()] = value.strip()
            body = await reader.readexactly(int(headers.get("content-length", "0")))
            due, on_answer = self.pending.popleft()
            on_answer(due, status, headers.get("x-cache"), body)
            if not self.pending:
                self._idle.set()

    async def drain(self, timeout: float) -> None:
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._task.cancel()
        try:
            await self._task
        except (asyncio.CancelledError, ConnectionError, asyncio.IncompleteReadError):
            pass


def _schedule(rng: random.Random, rate: float, duration: float) -> list[float]:
    """Poisson arrival times at *rate* over *duration* seconds."""
    times, t = [], rng.expovariate(rate)
    while t < duration:
        times.append(t)
        t += rng.expovariate(rate)
    return times


class Generator:
    """Drives rungs of open-loop traffic and checks every answer as it lands."""

    def __init__(self, seed: int, warm_set: list[dict], cold_cells: list[dict],
                 warm: Connection, cold: Connection, bodies: dict[str, bytes],
                 reference: dict, outcome: Outcome) -> None:
        self.seed = seed
        self.warm_requests = [_request(json.dumps(q, sort_keys=True).encode()) for q in warm_set]
        self.warm_bodies = [bodies[cell_id(q)] for q in warm_set]
        weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(warm_set))]
        total = sum(weights)
        self.cum_weights = [sum(weights[: k + 1]) / total for k in range(len(weights))]
        self.cold_cells = deque(cold_cells)
        self.warm, self.cold = warm, cold
        self.reference, self.outcome = reference, outcome
        #: True while the generator only waits for its next due time.
        self.waiting = False

    def _warm_answer(self, samples: list[float], expected: bytes) -> Callable[..., None]:
        def on_answer(due: float, status: int, x_cache: Optional[str], body: bytes) -> None:
            ok = status == 200 and x_cache == "warm" and body == expected
            samples.append(1e3 * (_perf() - due) if status == 200 else math.inf)
            self.outcome.check(ok, "" if ok else f"warm answer: status {status}, X-Cache "
                                                 f"{x_cache}, body identical to the cold body: "
                                                 f"{body == expected}")
        return on_answer

    def _cold_answer(self, samples: list[float], cell: str) -> Callable[..., None]:
        def on_answer(due: float, status: int, x_cache: Optional[str], body: bytes) -> None:
            samples.append(1e3 * (_perf() - due) if status == 200 else math.inf)
            gflops = json.loads(body)["record"]["gflops"] if status == 200 else None
            want = self.reference.get(cell)
            self.outcome.check(status == 200 and repr(gflops) == want,
                               f"{cell}: status {status}, gflops {gflops!r} != {want}")
        return on_answer

    async def _send_on_schedule(self, times: list[float], picks: list[int],
                                warm_ms: list[float], backlog: list[int]) -> list[float]:
        """Send warm query ``picks[i]`` at ``times[i]``; record the backlog
        at each send.  Returns how late (seconds) each was sent."""
        lateness: list[float] = []
        handlers = [self._warm_answer(warm_ms, body) for body in self.warm_bodies]
        start = _perf()
        i = 0
        while i < len(times):
            now = _perf() - start
            if times[i] > now:
                # The loop's timers fire up to a millisecond late; sleep to
                # just short of the due time, then yield until it comes.
                wait = times[i] - now - SPIN_SECONDS
                self.waiting = True
                await asyncio.sleep(wait if wait > 0 else 0)
                self.waiting = False
                continue
            while i < len(times) and times[i] <= now:
                lateness.append(now - times[i])
                backlog.append(self.warm.outstanding)
                self.warm.send(self.warm_requests[picks[i]], start + times[i], handlers[picks[i]])
                i += 1
            await asyncio.sleep(0)
        return lateness

    def _cold_client(self, deadline: float, cold_ms: list[float]) -> None:
        """Start the cold client: one never-seen cell at a time, the next
        :data:`COLD_THINK_SECONDS` after each answer, until *deadline*."""
        loop = asyncio.get_running_loop()

        def send_next() -> None:
            if _perf() >= deadline or not self.cold_cells:
                return
            query = self.cold_cells.popleft()
            check = self._cold_answer(cold_ms, cell_id(query))

            def on_answer(*answer: Any) -> None:
                check(*answer)
                loop.call_later(COLD_THINK_SECONDS, send_next)

            self.cold.send(_request(json.dumps(query, sort_keys=True).encode()), _perf(), on_answer)

        send_next()

    async def rung(self, name: str, rate: float, duration: float,
                   cold: bool = True) -> dict[str, Any]:
        """Open loop: Poisson warm arrivals at *rate*, the cold client beside
        them when *cold*."""
        rng = random.Random(f"whatif-rung:{self.seed}:{name}")
        times = _schedule(rng, rate, duration)
        picks = rng.choices(range(len(self.warm_requests)), cum_weights=self.cum_weights,
                            k=len(times))
        warm_ms: list[float] = []
        cold_ms: list[float] = []
        backlog: list[int] = []
        deadline = _perf() + duration
        if cold:
            self._cold_client(deadline, cold_ms)
        lateness = await self._send_on_schedule(times, picks, warm_ms, backlog)
        # The median over the rung's second half: a backlog that grows stays
        # high there, while one stall only lifts a few samples.
        backlog_end = median(backlog[len(backlog) // 2:]) if backlog else 0
        await asyncio.sleep(max(0.0, deadline - _perf()))  # the cold client stops here
        await self.warm.drain(timeout=15.0)
        await self.cold.drain(timeout=15.0)
        self.outcome.check(len(warm_ms) == len(times),
                           f"{name}: {len(times) - len(warm_ms)} warm queries unanswered")
        p99 = percentile(warm_ms, 99)
        return {
            "name": name, "rate": rate, "warm_samples": len(warm_ms), "cold_ms": cold_ms,
            "backlog_end": backlog_end, "warm_p50_ms": percentile(warm_ms, 50),
            "warm_p90_ms": percentile(warm_ms, 90), "warm_p99_ms": p99,
            "late_p99_ms": 1e3 * percentile(lateness, 99),
            "passed": p99 <= LATENCY_LIMIT_MS and backlog_end <= backlog_limit(rate, duration),
        }

    async def sequential(self, duration: float) -> float:
        """Closed loop, one warm query at a time for *duration*: answers per
        second.  Each answer sends the next query from its callback."""
        rng = random.Random(f"whatif-sequential:{self.seed}")
        indices = range(len(self.warm_requests))
        answered: list[float] = []
        handlers = [self._warm_answer(answered, body) for body in self.warm_bodies]
        deadline = _perf() + duration
        done = asyncio.get_running_loop().create_future()

        def send_next() -> None:
            k = rng.choices(indices, cum_weights=self.cum_weights)[0]

            def on_answer(*answer: Any) -> None:
                handlers[k](*answer)
                if _perf() < deadline:
                    send_next()
                elif not done.done():
                    done.set_result(None)

            self.warm.send(self.warm_requests[k], _perf(), on_answer)

        started = _perf()
        send_next()
        await asyncio.wait_for(done, timeout=duration + 15.0)
        return len(answered) / (_perf() - started)


async def _start_service(cache_dir: Path) -> Any:
    from repro.campaign.service import WhatIfService

    service = WhatIfService(slots=1, serial=False, cache_dir=cache_dir, rate=None)
    await service.start()
    return service


async def _prewarm(service: Any, warm_set: list[dict]) -> dict[str, bytes]:
    """Answer the working set once (cold, through the pool); the bodies."""
    bodies = {}
    for query in warm_set:
        body, _status = await service.answer(dict(query), tenant="perfbench")
        bodies[cell_id(query)] = body
    return bodies


def setup_probe(seed: int) -> None:
    """Import the service, start it on a fresh cache and pre-warm the working set."""
    import tempfile

    warm_set, _ = draw_cells(seed)

    async def probe() -> None:
        service = await _start_service(Path(tempfile.mkdtemp()))
        try:
            await _prewarm(service, warm_set)
        finally:
            await service.stop()

    asyncio.run(probe())


class _LayerRecorder:
    """Traced-run spans at the campaign / session / exec boundaries."""

    def __init__(self, tracer: Tracer) -> None:
        from repro.campaign import service as service_module
        from repro.exec import cache, pool
        from repro.session.runtime import AsyncSession

        self.submitted_at: dict[int, float] = {}
        self.admission: list[float] = []
        self.pool_wait: list[float] = []
        self.handles: list[Any] = []
        tracer.wrap(service_module, "normalize_query", "campaign.normalize_query")
        tracer.wrap(cache.ResultCache, "get", "exec.cache_get")
        tracer.wrap(cache.ResultCache, "put", "exec.cache_put")
        tracer.wrap(AsyncSession, "submit", "session.submit", on_exit=self._submit)
        tracer.wrap(pool.WorkerPool, "submit", "exec.pool_submit", on_exit=self._dispatch)

    def _submit(self, seconds: float, args: tuple, kwargs: dict, handle: Any) -> None:
        from repro.session.runtime import RunState

        if handle.state is RunState.PENDING:  # queued: dispatched later
            self.submitted_at[id(args[1])] = _perf() - seconds
        self.handles.append(handle)

    def _dispatch(self, seconds: float, args: tuple, kwargs: dict, future: Any) -> None:
        # A job granted a slot at once is dispatched inside AsyncSession.submit,
        # before that span ends, so it has no submit time yet: it waited 0.
        dispatched = _perf() - seconds
        submitted = self.submitted_at.pop(id(kwargs.get("scenario")), dispatched)
        self.admission.append(dispatched - submitted)
        future.add_done_callback(lambda _f: self.pool_wait.append(_perf() - dispatched))


async def _ladder(gen: Generator, budget: float) -> list[dict]:
    """Rising open-loop rungs until two fail in a row or *budget* seconds pass."""
    rungs: list[dict] = []
    started, failures = _perf(), 0
    for rate in LADDER:
        if _perf() - started + RUNG_SECONDS > budget:
            break
        rungs.append(await gen.rung(f"r{rate}", rate, RUNG_SECONDS))
        failures = 0 if rungs[-1]["passed"] else failures + 1
        if failures == 2:
            break
    return rungs


def max_qps(mixed: dict, ladder: list[dict]) -> float:
    """The highest passing rung (the mixed rung when no ladder rung passes)."""
    passing = [r["rate"] for r in ladder if r["passed"]] or ([mixed["rate"]] if mixed["passed"] else [])
    return max(passing, default=0.0)


async def _measure(seed: int, seconds: float, trace: bool, workdir: Path,
                   reference: dict, outcome: Outcome) -> None:
    warm_set, cold_cells = draw_cells(seed)
    service = await _start_service(workdir / "cache")
    warm = cold = None
    try:
        bodies = await _prewarm(service, warm_set)
        for query in warm_set:
            gflops = json.loads(bodies[cell_id(query)])["record"]["gflops"]
            want = reference.get(cell_id(query))
            outcome.check(repr(gflops) == want, f"{cell_id(query)}: gflops {gflops!r} != {want}")
        warm = await Connection.open(service.port)
        cold = await Connection.open(service.port)
        gen = Generator(seed, warm_set, cold_cells, warm, cold, bodies, reference, outcome)
        if trace:
            began = _perf()
            mixed = await _traced_rung(gen, service, warm, TRACED_SHARE * seconds, outcome)
            ladder = await _ladder(gen, seconds - (_perf() - began))
        else:
            # The three kinds of window alternate through the run, so all
            # sample the host's slow and fast stretches alike.
            warm_only, mixed_rungs, sequential = [], [], []
            for cycle in range(CYCLES):
                warm_only.append(await gen.rung(
                    f"warm{cycle}", REF_RATE, WARM_SHARE * seconds / CYCLES, cold=False))
                mixed_rungs.append(await gen.rung(
                    f"mixed{cycle}", REF_RATE, MIXED_SHARE * seconds / CYCLES))
                sequential.append(await gen.sequential(SEQUENTIAL_SHARE * seconds / CYCLES))
    finally:
        for conn in (warm, cold):
            if conn is not None:
                await conn.close()
        await service.stop()

    if trace:
        outcome.details.update({
            "rungs": [_rung_summary(r) for r in [mixed] + ladder],
            "max_qps": max_qps(mixed, ladder),
        })
        outcome.metrics.update({
            "whatif.warm_p99_ms": mixed["warm_p99_ms"],
            "whatif.max_qps": max_qps(mixed, ladder),
        })
        return
    cold_ms = [ms for r in mixed_rungs for ms in r["cold_ms"]]
    outcome.details.update({
        "ref_rate": REF_RATE, "cold_think_s": COLD_THINK_SECONDS, "cycles": CYCLES,
        "warm_samples": sum(r["warm_samples"] for r in warm_only), "cold_samples": len(cold_ms),
        "rungs": [_rung_summary(r) for r in warm_only + mixed_rungs],
        "sequential_per_s": sequential,
        "rule": "wait_s = median over the warm-only rungs of their warm p50, from due time; "
                "cell_s = p50 of every cold answer in the mixed rungs, from due time; "
                "rate_per_s = median over the sequential windows of warm answers per second "
                "(nearest-rank percentiles)",
    })
    outcome.metrics.update({
        "wait_s": median([r["warm_p50_ms"] for r in warm_only]) / 1e3,
        "cell_s": percentile(cold_ms, 50) / 1e3,
        "rate_per_s": median(sequential),
        "peak_rss_mb": peak_rss_mb(),
    })


def _rung_summary(rung: dict) -> dict:
    return {k: rung[k] for k in ("name", "rate", "warm_samples", "backlog_end", "warm_p50_ms",
                                 "warm_p90_ms", "warm_p99_ms", "late_p99_ms", "passed")}


async def _traced_rung(gen: Generator, service: Any, warm: Connection,
                      duration: float, outcome: Outcome) -> dict:
    """One mixed rung under spans and the sampler; fills the layer metrics."""
    from repro import exec as exec_policy
    from repro.session.runtime import RunState

    # Overhead probe: sequential windows alternately without and with the
    # sampler (the spans sit only on the cold path, which these skip).
    untraced_rate = traced_rate = 0.0
    for _ in range(OVERHEAD_PAIRS):
        untraced_rate += await gen.sequential(1.0)
        with PackageProfile():
            traced_rate += await gen.sequential(1.0)
    tracer = Tracer()
    layers = _LayerRecorder(tracer)
    policy = exec_policy.ExecutionPolicy()
    stats_before = dict(service.stats)
    profile = PackageProfile(waiting=lambda: gen.waiting, spin=("_send_on_schedule",))
    try:
        with exec_policy.use(policy), profile:
            mixed = await gen.rung("mixed", REF_RATE, duration)
    finally:
        tracer.restore()
    stats = {k: service.stats[k] - stats_before[k] for k in service.stats}
    server_stats: list[bytes] = []
    warm.send(_request(b"", "/stats", "GET"), _perf(),
              lambda due, status, x_cache, body: server_stats.append(body))
    await warm.drain(timeout=15.0)
    lookups = policy.stats.cache_hits + policy.stats.cache_misses
    queries = stats["queries"]
    outcome.metrics.update(layer_metrics(profile))
    outcome.details.update(trace_details(profile))
    outcome.metrics.update({
        "exec.tasks": tracer.count("exec.pool_submit"),
        "exec.cache_hits": policy.stats.cache_hits,
        "exec.cache_misses": policy.stats.cache_misses,
        "exec.hit_rate": policy.stats.cache_hits / lookups if lookups else 0.0,
        "exec.cache_get_ms": tracer.mean_ms("exec.cache_get"),
        "exec.cache_put_ms": tracer.mean_ms("exec.cache_put"),
        "exec.pool_wait_ms": 1e3 * median(layers.pool_wait) if layers.pool_wait else 0.0,
        "session.submitted": tracer.count("session.submit"),
        "session.admission_wait_ms": 1e3 * median(layers.admission) if layers.admission else 0.0,
        "session.failed": sum(h.state is RunState.FAILED for h in layers.handles),
        "campaign.answer_self_ms":
            1e3 * profile.function_self("campaign/service.py", "answer") / queries if queries else 0.0,
        "campaign.warm_ratio": stats["warm"] / queries if queries else 0.0,
        "campaign.normalize_calls": tracer.count("campaign.normalize_query"),
        "campaign.coalesced": stats["coalesced"],
        "campaign.rejected": stats["rejected"],
        "campaign.rate_limited": stats["rate_limited"],
        "campaign.memo_entries": json.loads(server_stats[0])["memo_entries"],
        "gen.late_p99_ms": mixed["late_p99_ms"],
        "whatif.warm_p50_ms": mixed["warm_p50_ms"],
        "whatif.backlog_end": mixed["backlog_end"],
        "obs.tracing_overhead": untraced_rate / traced_rate - 1.0,
    })
    return mixed


def run(seed: int, seconds: float, trace: bool, workdir: Path, reference: dict) -> Outcome:
    outcome = Outcome()
    asyncio.run(_measure(seed, seconds, trace, workdir, reference["whatif"], outcome))
    return outcome
