"""The asyncio session runtime: thousands of scenarios in flight at once.

The synchronous :class:`~repro.session.Session` runs one scenario and
blocks.  An exascale-era sweep is shaped differently: a campaign keeps
thousands of simulations in flight across tenants, cancels the ones a
what-if query no longer needs, and survives its driver being killed.  The
runtime here is that front-end::

    async with AsyncSession(slots=8) as session:
        handle = session.submit(Scenario(scheduler="adaptive", n=40000),
                                tenant="campaign-a")
        async for event in handle.stream():
            ...                      # incremental state/span/metric events
        result = await handle.result()

Three layers, composed:

* :class:`AsyncRuntime` — the generic core: a
  :class:`~repro.session.fair_share.FairShareScheduler` granting slots of a
  persistent :class:`repro.exec.WorkerPool` round-robin across tenants
  (bounded admission queues, per-tenant in-flight caps), with every job
  tracked by a :class:`RunHandle` that reaches **exactly one** terminal
  state — completed, failed, or cancelled.  Batch sweeps do not come
  through here: :func:`repro.exec.run_tasks` fans them out over a
  :class:`~repro.exec.WorkerPool` of its own.
* :class:`AsyncSession` — the scenario front-end: ``submit()`` pickles the
  :class:`~repro.session.Scenario` onto a worker, ``handle.stream()`` tails
  the per-job :mod:`repro.obs.stream` event file the worker appends to
  (span/instant records plus a final metrics snapshot), and completions are
  journaled through a :class:`~repro.session.journal.SweepJournal` so a
  killed campaign resumes losing at most its in-flight scenarios.
* :func:`run_sweep` — the checkpoint/resume driver: give it scenarios and
  a journal path; it replays journaled completions and runs only the rest.

Cancellation semantics (pinned by ``tests/session/test_cancel.py``): a
*queued* job cancels immediately; a *running* job cannot be interrupted —
its worker finishes, the result is discarded, the handle ends CANCELLED; a
job whose execution already finished (always the case on the serial
fallback path, where :class:`~repro.exec.WorkerPool` runs jobs inline)
treats ``cancel()`` as a no-op completion — never a hang.
"""

from __future__ import annotations

import asyncio
import enum
import json
import tempfile
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, AsyncIterator, Callable, Optional, Sequence, Union

from repro import obs
from repro.exec.pool import WorkerPool
from repro.hpl.driver import LinpackResult
from repro.session.fair_share import (
    DEFAULT_MAX_IN_FLIGHT,
    DEFAULT_MAX_QUEUED,
    AdmissionFull,
    FairShareScheduler,
)
from repro.session.journal import ResumePlan, SweepJournal
from repro.session.scenario import Scenario
from repro.session.sync import Session

__all__ = [
    "RunState",
    "SessionEvent",
    "RunHandle",
    "AsyncRuntime",
    "AsyncSession",
    "run_sweep",
]

#: How often (seconds) stream() re-polls a live job's event file.
DEFAULT_STREAM_POLL = 0.02


class RunState(str, enum.Enum):
    """A submitted job's lifecycle.  Exactly one terminal state, ever."""

    PENDING = "pending"      # admitted, waiting for a fair-share slot
    RUNNING = "running"      # dispatched to the worker pool
    COMPLETED = "completed"  # result available
    FAILED = "failed"        # the run raised; error available
    CANCELLED = "cancelled"  # cancelled before a result was accepted

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = {RunState.COMPLETED, RunState.FAILED, RunState.CANCELLED}


@dataclass(frozen=True)
class SessionEvent:
    """One item of a handle's event stream.

    ``kind`` is ``"state"`` for lifecycle transitions (``data`` holds
    ``{"state": ...}``), or the record's ``t`` field — ``"span"``,
    ``"instant"``, ``"metrics"`` — for telemetry streamed out of the
    worker's per-job JSONL file.
    """

    kind: str
    job_id: str
    data: dict[str, Any] = field(default_factory=dict)
    wall: float = 0.0


class RunHandle:
    """One submitted job: await its result, stream its events, cancel it."""

    def __init__(
        self,
        job_id: str,
        tenant: str,
        *,
        scenario: Optional[Scenario] = None,
        label: str = "",
        events_path: Optional[Path] = None,
    ) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.scenario = scenario
        self.label = label or job_id
        self._events_path = events_path
        self._state = RunState.PENDING
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._done = asyncio.Event()
        self._cancel_requested = False
        self._future: Optional["asyncio.Future[Any]"] = None
        # The pool-level future: done-ness here means execution actually
        # finished, even before the event loop has seen the completion
        # (the asyncio wrapper only resolves once the loop runs).
        self._exec_future: Optional["Future[Any]"] = None
        #: Must end at exactly 1 — the soak harness's core invariant.
        self.terminal_transitions = 0
        self._state_events: list[SessionEvent] = [
            SessionEvent("state", job_id, {"state": RunState.PENDING.value}, time.time())
        ]

    # -- observers -------------------------------------------------------------
    @property
    def state(self) -> RunState:
        return self._state

    @property
    def done(self) -> bool:
        return self._state.terminal

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    async def wait(self) -> RunState:
        """Block until the job reaches its terminal state; never raises."""
        await self._done.wait()
        return self._state

    async def result(self) -> Any:
        """The job's result; raises its error on FAILED and
        :class:`asyncio.CancelledError` on CANCELLED."""
        await self._done.wait()
        if self._state is RunState.FAILED:
            assert self._error is not None
            raise self._error
        if self._state is RunState.CANCELLED:
            raise asyncio.CancelledError(f"{self.label} was cancelled")
        return self._result

    def exception(self) -> Optional[BaseException]:
        """The terminal error, if the job FAILED (None otherwise)."""
        return self._error

    # -- cancellation ----------------------------------------------------------
    def cancel(self) -> bool:
        """Request cancellation; returns True when it will be honored.

        Queued jobs cancel immediately.  Running jobs cancel at completion
        (result discarded).  Jobs whose execution already finished — the
        invariable case on the serial fallback path — return False and
        complete normally: a no-op, never a hang.
        """
        if self._state.terminal:
            return False
        if self._state is RunState.PENDING:
            # The runtime's cancel hook (set at submit) dequeues it.
            self._cancel_requested = True
            if self._on_cancel is not None:
                self._on_cancel(self)
            return True
        if self._exec_future is not None and self._exec_future.done():
            return False  # execution finished; completion is on its way
        self._cancel_requested = True
        return True

    _on_cancel: Optional[Callable[["RunHandle"], None]] = None

    # -- event stream ----------------------------------------------------------
    async def stream(
        self, *, poll_interval: float = DEFAULT_STREAM_POLL
    ) -> "AsyncIterator[SessionEvent]":
        """Yield this job's events — lifecycle transitions always, plus the
        worker's incremental span/instant/metrics records when the job was
        submitted with ``stream=True``.

        The stream ends once the job is terminal and every event has been
        drained; it replays history, so consuming after completion yields
        the full record.
        """
        sent_states = 0
        offset = 0
        while True:
            while sent_states < len(self._state_events):
                yield self._state_events[sent_states]
                sent_states += 1
            if self._events_path is not None:
                offset, records = _read_event_records(self._events_path, offset)
                for record in records:
                    yield SessionEvent(
                        str(record.get("t", "record")),
                        self.job_id,
                        record,
                        time.time(),
                    )
            if self.done:
                # One final drain after the terminal transition: the worker
                # closed its sink before the result was accepted, so EOF
                # here is the real end of the stream.
                while sent_states < len(self._state_events):
                    yield self._state_events[sent_states]
                    sent_states += 1
                if self._events_path is not None:
                    offset, records = _read_event_records(self._events_path, offset)
                    for record in records:
                        yield SessionEvent(
                            str(record.get("t", "record")),
                            self.job_id,
                            record,
                            time.time(),
                        )
                return
            try:
                await asyncio.wait_for(self._done.wait(), timeout=poll_interval)
            except asyncio.TimeoutError:
                pass

    # -- runtime-side transitions (loop thread only) ---------------------------
    def _transition(self, state: RunState) -> None:
        if self._state.terminal:
            raise AssertionError(
                f"{self.label}: second terminal transition "
                f"{self._state.value} -> {state.value}"
            )
        self._state = state
        self._state_events.append(
            SessionEvent("state", self.job_id, {"state": state.value}, time.time())
        )
        if state.terminal:
            self.terminal_transitions += 1
            self._done.set()


def _read_event_records(path: Path, offset: int) -> tuple[int, list[dict[str, Any]]]:
    """Read complete JSONL records appended past *offset*; tolerant tail.

    Returns the new offset (end of the last complete line consumed) and
    the parsed records.  A torn or garbled line is left for the next poll;
    garbage that never completes is skipped once a newline lands after it.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
    except OSError:
        return offset, []
    if not chunk:
        return offset, []
    end = chunk.rfind(b"\n")
    if end < 0:
        return offset, []
    records: list[dict[str, Any]] = []
    for line in chunk[: end + 1].splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return offset + end + 1, records


# -- worker-side execution -----------------------------------------------------


def _execute_scenario(scenario: Scenario, events_path: Optional[str] = None) -> LinpackResult:
    """Run one scenario on a worker, optionally streaming its telemetry.

    With *events_path*, every span/instant the run records is flushed
    record-by-record into that JSONL file through a
    :class:`repro.obs.StreamingSink` (``fsync`` off: the parent outlives
    the worker and tails the file live), followed by one ``{"t":
    "metrics", ...}`` snapshot line — the feed ``RunHandle.stream()``
    serves.
    """
    if events_path is None:
        return Session(scenario).run()
    from repro.obs.stream import StreamingSink

    sink = StreamingSink(
        events_path, flush_records=1, flush_interval=None, fsync=False
    )
    telemetry = obs.Telemetry(sink=sink)
    try:
        with obs.use(telemetry):
            result = Session(scenario).run(telemetry=telemetry)
    finally:
        sink.close()
    with open(events_path, "a", encoding="utf-8") as handle:
        handle.write(
            json.dumps(
                {"t": "metrics", "metrics": telemetry.metrics.scalar_summary()},
                default=str,
            )
            + "\n"
        )
    return result


# -- the runtime core ----------------------------------------------------------


class AsyncRuntime:
    """Generic fair-share job runtime over a persistent worker pool.

    Drive it from inside a running event loop.  ``submit_job`` admits a
    picklable ``fn(**kwargs)`` under a tenant; slots are granted
    round-robin by the :class:`FairShareScheduler`; results land on
    :class:`RunHandle`\\ s.  Subclasses hook :meth:`_job_completed` (the
    journal) and :meth:`_describe` (metrics labels).
    """

    def __init__(
        self,
        *,
        slots: Optional[int] = None,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_queued: int = DEFAULT_MAX_QUEUED,
        serial: Optional[bool] = None,
    ) -> None:
        self.pool = WorkerPool(slots, serial=serial)
        self.scheduler = FairShareScheduler(
            self.pool.size, max_in_flight=max_in_flight, max_queued=max_queued
        )
        self._handles: dict[str, RunHandle] = {}
        self._live = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._seq = 0
        self._closed = False
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0

    # -- tenancy ---------------------------------------------------------------
    def tenant(
        self,
        name: str,
        *,
        max_in_flight: Optional[int] = None,
        max_queued: Optional[int] = None,
    ) -> None:
        """Declare a tenant with custom caps (auto-declared on first submit)."""
        self.scheduler.tenant(
            name, max_in_flight=max_in_flight, max_queued=max_queued
        )

    # -- submission ------------------------------------------------------------
    def submit_job(
        self,
        fn: Callable[..., Any],
        kwargs: dict,
        *,
        tenant: str = "default",
        label: str = "",
        scenario: Optional[Scenario] = None,
        events_path: Optional[Path] = None,
    ) -> RunHandle:
        """Admit one job; raises :class:`AdmissionFull` at the tenant bound.

        Must be called with the event loop running (it schedules the
        completion callback on it).
        """
        if self._closed:
            raise RuntimeError("runtime is closed")
        asyncio.get_running_loop()  # raise early outside a loop
        self._seq += 1
        job_id = f"job-{self._seq:06d}"
        handle = RunHandle(
            job_id, tenant, scenario=scenario, label=label, events_path=events_path
        )
        handle._on_cancel = self._cancel_pending
        handle._payload = (fn, kwargs)  # type: ignore[attr-defined]
        self.scheduler.submit(tenant, job_id)
        self._handles[job_id] = handle
        self._live += 1
        self._idle.clear()
        self.submitted += 1
        self._count("session.submitted", "jobs admitted to the session runtime")
        self._pump()
        return handle

    # -- scheduling ------------------------------------------------------------
    def _pump(self) -> None:
        """Dispatch every job the fair-share scheduler will currently grant."""
        while True:
            job_id = self.scheduler.next_job()
            if job_id is None:
                break
            self._dispatch(self._handles[job_id])
        self._gauges()

    def _dispatch(self, handle: RunHandle) -> None:
        fn, kwargs = handle._payload  # type: ignore[attr-defined]
        handle._transition(RunState.RUNNING)
        future = self.pool.submit(fn, **kwargs)
        handle._exec_future = future
        handle._future = asyncio.wrap_future(future)
        asyncio.ensure_future(self._finalize(handle))

    async def _finalize(self, handle: RunHandle) -> None:
        error: Optional[BaseException] = None
        result: Any = None
        assert handle._future is not None
        try:
            result = await handle._future
        except asyncio.CancelledError as exc:  # future cancelled under us
            error = exc
        except BaseException as exc:  # noqa: BLE001 - reported via the handle
            error = exc
        self.scheduler.finish(handle.job_id)
        if handle.cancel_requested:
            self.cancelled += 1
            self._count("session.cancelled", "jobs cancelled")
            handle._transition(RunState.CANCELLED)
        elif error is not None:
            handle._error = error
            self.failed += 1
            self._count("session.failed", "jobs that raised")
            handle._transition(RunState.FAILED)
        else:
            try:
                self._job_completed(handle, result)
            except BaseException as exc:  # noqa: BLE001 - journal failure
                # A checkpoint that cannot be written is a failed job: the
                # caller must not believe a completion that would vanish on
                # resume.
                handle._error = exc
                self.failed += 1
                self._count("session.failed", "jobs that raised")
                handle._transition(RunState.FAILED)
            else:
                handle._result = result
                self.completed += 1
                self._count("session.completed", "jobs completed with a result")
                handle._transition(RunState.COMPLETED)
        self._forget(handle)
        self._pump()

    def _cancel_pending(self, handle: RunHandle) -> None:
        """Handle-side hook: a PENDING job asked to cancel."""
        if self.scheduler.cancel_queued(handle.job_id):
            self.cancelled += 1
            self._count("session.cancelled", "jobs cancelled")
            handle._transition(RunState.CANCELLED)
            self._forget(handle)
            self._pump()

    def _forget(self, handle: RunHandle) -> None:
        """Drop the runtime's reference; the caller's handle stays valid."""
        if self._handles.pop(handle.job_id, None) is not None:
            self._live -= 1
            if self._live == 0:
                self._idle.set()

    # -- hooks -----------------------------------------------------------------
    def _job_completed(self, handle: RunHandle, result: Any) -> None:
        """Subclass hook, called before the COMPLETED transition."""

    # -- lifecycle -------------------------------------------------------------
    async def drain(self) -> None:
        """Wait until no submitted job remains live (queued or in flight)."""
        await self._idle.wait()

    async def close(self, *, cancel_queued: bool = True) -> None:
        """Cancel what is still queued, wait out what is running, shut down.
        Idempotent."""
        if self._closed:
            return
        if cancel_queued:
            for handle in list(self._handles.values()):
                if handle.state is RunState.PENDING:
                    handle.cancel()
        await self.drain()
        self._closed = True
        self.pool.shutdown()
        self._gauges()

    async def __aenter__(self) -> "AsyncRuntime":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- introspection / metrics -----------------------------------------------
    @property
    def live_jobs(self) -> int:
        """Jobs currently queued or in flight."""
        return self._live

    def _count(self, name: str, help: str) -> None:
        telemetry = obs.current()
        if telemetry is not None:
            telemetry.metrics.counter(name, help).inc()

    def _gauges(self) -> None:
        telemetry = obs.current()
        if telemetry is not None:
            telemetry.metrics.gauge(
                "session.in_flight", "jobs holding pool slots"
            ).set(self.scheduler.total_in_flight)
            telemetry.metrics.gauge(
                "session.queued", "jobs awaiting a fair-share slot"
            ).set(self.scheduler.queued_count())


# -- the scenario front-end ----------------------------------------------------


class AsyncSession(AsyncRuntime):
    """Submit/stream/cancel :class:`Scenario` runs over the worker pool.

    Parameters
    ----------
    slots:
        Worker processes (``None``: all cores).  ``serial=True`` — or
        running inside a pool worker — degrades to inline execution with
        identical results.
    max_in_flight / max_queued:
        Default per-tenant caps; override per tenant via :meth:`tenant`.
    journal:
        A :class:`SweepJournal` (or a path for one): every completed
        scenario is journaled — fsync-ed before the handle resolves — so a
        killed campaign resumes losing only in-flight scenarios.
    ledger:
        A :class:`repro.obs.RunLedger`: the journal (when not explicitly
        given) and the per-job event streams live inside its run
        directory, making the flight recorder the one place to look.
    stream_telemetry:
        Default for ``submit(stream=)``: whether workers stream per-job
        span/metric events for :meth:`RunHandle.stream`.  Off by default —
        a soak run churning thousands of scenarios should not write
        thousands of event files unless asked.
    """

    def __init__(
        self,
        *,
        slots: Optional[int] = None,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_queued: int = DEFAULT_MAX_QUEUED,
        serial: Optional[bool] = None,
        journal: Union[SweepJournal, str, Path, None] = None,
        ledger: Optional["obs.RunLedger"] = None,
        stream_telemetry: bool = False,
    ) -> None:
        super().__init__(
            slots=slots,
            max_in_flight=max_in_flight,
            max_queued=max_queued,
            serial=serial,
        )
        self.ledger = ledger
        self._owns_journal = False
        if journal is None and ledger is not None:
            journal = SweepJournal.in_ledger(ledger)
            self._owns_journal = True
        elif isinstance(journal, (str, Path)):
            journal = SweepJournal(journal)
            self._owns_journal = True
        self.journal: Optional[SweepJournal] = journal
        self.stream_telemetry = bool(stream_telemetry)
        self._spool_tmp: Optional[tempfile.TemporaryDirectory] = None
        if ledger is not None:
            self._spool = Path(ledger.directory) / "streams"
        else:
            self._spool_tmp = tempfile.TemporaryDirectory(prefix="repro-session-")
            self._spool = Path(self._spool_tmp.name)

    def submit(
        self,
        scenario: Scenario,
        *,
        tenant: str = "default",
        stream: Optional[bool] = None,
    ) -> RunHandle:
        """Admit one scenario run; returns its :class:`RunHandle`.

        Raises :class:`AdmissionFull` when the tenant's bounded admission
        queue is at capacity — backpressure the caller must handle.
        """
        stream = self.stream_telemetry if stream is None else bool(stream)
        events_path: Optional[Path] = None
        kwargs: dict[str, Any] = {"scenario": scenario}
        if stream:
            self._spool.mkdir(parents=True, exist_ok=True)
            events_path = self._spool / f"events-{self._seq + 1:06d}.jsonl"
            kwargs["events_path"] = str(events_path)
        return self.submit_job(
            _execute_scenario,
            kwargs,
            tenant=tenant,
            label=f"{scenario.scheduler_name}/n={scenario.n}",
            scenario=scenario,
            events_path=events_path,
        )

    def _job_completed(self, handle: RunHandle, result: Any) -> None:
        if self.journal is not None and handle.scenario is not None:
            self.journal.record(handle.scenario, result, tenant=handle.tenant)

    async def close(self, *, cancel_queued: bool = True) -> None:
        await super().close(cancel_queued=cancel_queued)
        if self.journal is not None and self._owns_journal:
            self.journal.close()
        if self._spool_tmp is not None:
            self._spool_tmp.cleanup()
            self._spool_tmp = None

    async def __aenter__(self) -> "AsyncSession":
        return self


# -- the checkpoint/resume driver ----------------------------------------------


def run_sweep(
    scenarios: Sequence[Scenario],
    *,
    journal_path: Union[str, Path],
    tenant_of: Optional[Callable[[int, Scenario], str]] = None,
    slots: Optional[int] = None,
    serial: Optional[bool] = None,
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    resume: bool = True,
) -> list[dict[str, Any]]:
    """Run a scenario sweep with checkpoint/resume through *journal_path*.

    Returns one journal-shaped record per scenario, in sweep order.  With
    ``resume=True`` (the default) scenarios already journaled at
    *journal_path* are **not** re-run — their journaled records are
    returned — so re-invoking after a kill re-runs exactly the scenarios
    that had not completed.  The journal file ends up holding the union,
    equal (as a completion multiset) to an uninterrupted run's.
    """
    scenarios = list(scenarios)
    if resume:
        plan = SweepJournal.plan(journal_path, scenarios)
    else:
        plan = ResumePlan(done={}, pending=tuple(enumerate(scenarios)))
    results: dict[int, dict[str, Any]] = dict(plan.done)

    async def _run() -> None:
        journal = SweepJournal(journal_path)
        try:
            async with AsyncSession(
                slots=slots,
                serial=serial,
                journal=journal,
                max_in_flight=max_in_flight,
            ) as session:
                handles = {
                    index: session.submit(
                        scenario,
                        tenant=tenant_of(index, scenario) if tenant_of else "default",
                    )
                    for index, scenario in plan.pending
                }
                for index, handle in handles.items():
                    result = await handle.result()
                    results[index] = {
                        "v": 1,
                        "hash": handle.scenario.content_hash(),
                        "tenant": handle.tenant,
                        "scheduler": handle.scenario.scheduler_name,
                        "n": handle.scenario.n,
                        "seed": handle.scenario.seed,
                        "gflops": result.gflops,
                        "elapsed": result.elapsed,
                        "degraded": None
                        if result.degraded is None
                        else str(result.degraded),
                    }
        finally:
            journal.close()

    if plan.pending:
        asyncio.run(_run())
    return [results[index] for index in range(len(scenarios))]
