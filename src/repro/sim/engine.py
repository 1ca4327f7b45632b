"""Discrete-event simulation kernel: clock, events, processes, combinators.

The design follows the classic event-calendar architecture: a calendar of
``(time, sequence)``-ordered events; processing an event runs its callbacks,
which typically resume generator processes, which schedule further events.
Two events at the same virtual time are processed in scheduling order, making
every simulation fully deterministic.

The calendar is a **calendar queue** (R. Brown, CACM 1988): events are
binned into fixed-width time buckets held in a dict keyed by the bucket
index, with a small heap of bucket keys.  Enqueue is an O(1) amortized
append; only the *front* bucket is heap-ordered, so pops cost
``O(log bucket_size)`` instead of ``O(log calendar_size)``.  The bucket
width adapts to the observed event density (see :meth:`Simulator._advance`),
and because the bucket index is a monotone function of the timestamp, the
pop order is always exactly the ``(when, sequence)`` total order the old
single-heap calendar produced — golden traces are byte-identical across the
two implementations.  Every calendar entry is one event: ``step`` processes
exactly one, and the kernel counters count them one by one.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the DES kernel (not for modeled failures)."""


class SimStats:
    """Kernel bookkeeping at one instant (see :meth:`Simulator.stats`)."""

    __slots__ = (
        "now",
        "events_scheduled",
        "events_processed",
        "queue_depth",
        "max_queue_depth",
        "wall_seconds",
    )

    def __init__(
        self,
        now: float,
        events_scheduled: int,
        events_processed: int,
        queue_depth: int,
        max_queue_depth: int,
        wall_seconds: float,
    ) -> None:
        self.now = now
        self.events_scheduled = events_scheduled
        self.events_processed = events_processed
        self.queue_depth = queue_depth
        self.max_queue_depth = max_queue_depth
        self.wall_seconds = wall_seconds

    @property
    def sim_per_wall(self) -> float:
        """Virtual seconds simulated per wall-clock second inside run()."""
        return self.now / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimStats(now={self.now!r}, events_scheduled={self.events_scheduled!r}, "
            f"events_processed={self.events_processed!r}, queue_depth={self.queue_depth!r}, "
            f"max_queue_depth={self.max_queue_depth!r}, wall_seconds={self.wall_seconds!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimStats):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in SimStats.__slots__
        )


#: The value of a not-yet-triggered event.  The kernel's hot paths test
#: ``_value is _PENDING`` and ``callbacks is None`` directly instead of going
#: through the ``triggered`` / ``processed`` properties.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event goes through three states: *pending* (created), *triggered*
    (``succeed``/``fail`` called, sitting in the calendar) and *processed*
    (callbacks have run).  ``value`` carries the payload on success or the
    exception on failure.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "_poolable")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        # Kernel-internal events (process init/relay) are recycled through the
        # simulator's pool once processed; user-created events never are.
        self._poolable = False

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success payload, or the failure exception."""
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering ----------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed, carrying *exception*.

        Unless some waiter handles (defuses) the failure, the simulator
        re-raises the exception when the event is processed — silent failures
        are bugs in a performance model.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError("event already triggered")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self, 0.0)
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so the simulator does not re-raise it."""
        self._defused = True

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register *callback* to run when the event is processed."""
        callbacks = self.callbacks
        if callbacks is None:
            raise SimulationError("cannot add a callback to a processed event")
        callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6g}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(sim)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        sim._enqueue(self, self.delay)


class Process(Event):
    """A running generator; also an event others can wait on.

    The generator ``yield``\\ s :class:`Event` instances; each resume sends the
    event's value back in (or throws its exception).  When the generator
    returns, the process event succeeds with the return value.
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process needs a generator, got {type(generator).__name__}")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Kick the process off via an immediately-scheduled init event so that
        # process bodies never run re-entrantly inside the caller.
        init = sim._internal_event()
        init.succeed(None)
        init.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        try:
            if trigger._ok:
                target = self.generator.send(trigger._value)
            else:
                trigger.defuse()
                target = self.generator.throw(trigger._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event instances"
            )
            self.generator.close()
            self.fail(exc)
            return
        if target.sim is not self.sim:
            self.generator.close()
            self.fail(SimulationError("yielded an event from a different Simulator"))
            return
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is None:
            # The event already fired; resume on a fresh immediate event so
            # ordering stays queue-driven.
            relay = self.sim._internal_event()
            if target._ok:
                relay.succeed(target._value)
            else:
                relay.fail(target._value)  # pragma: no cover - late-join on failure
            relay.add_callback(self._resume)
        else:
            callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'done' if self.triggered else 'alive'}>"


class _Condition(Event):
    """Base for AllOf/AnyOf: waits on a set of events."""

    __slots__ = ("events", "_pending_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        # _check decrements this toward zero (each constituent exactly once),
        # so AllOf completion is an O(1) counter test, not an O(n) rescan.
        self._pending_count = len(self.events)
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.add_callback(self._check)
        if not self.events and not self.triggered:
            self.succeed(self._collect())

    def _collect(self) -> list[Any]:
        return [e._value for e in self.events if e.triggered and e._ok]

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when *all* events have succeeded; value is their value list.

    Fails fast (with defusing) if any constituent fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defuse()
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Succeeds when the *first* event succeeds; value is that event's value."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defuse()
            return
        if event._ok:
            self.succeed(event._value)
        else:
            event.defuse()
            self.fail(event._value)


#: Bucket index used for non-finite timestamps (run-until-inf style events);
#: far beyond any finite calendar position.
_FAR_BUCKET = 1 << 120

#: Calendar-queue tuning constants.  A bucket whose activation finds more
#: than _SHRINK_ENTRIES entries spanning more than _SHRINK_DISTINCT distinct
#: timestamps narrows the width toward _TARGET_DISTINCT timestamps/bucket;
#: _GROW_STREAK consecutive near-empty activations with a long key heap
#: widen it.  Resizes redistribute all buffered entries (O(n), rare) and
#: depend only on the event stream, never on wall time — determinism holds.
_SHRINK_ENTRIES = 512
_SHRINK_DISTINCT = 64
_TARGET_DISTINCT = 16
_GROW_STREAK = 64
_GROW_FACTOR = 8.0
_MIN_WIDTH = 1e-18
_MAX_WIDTH = 1e18


class Simulator:
    """The event loop and virtual clock."""

    __slots__ = (
        "_now",
        "_sequence",
        "_running",
        "events_processed",
        "max_queue_depth",
        "_wall_seconds",
        "_event_pool",
        # calendar queue
        "_front",
        "_front_hi",
        "_buckets",
        "_bucket_keys",
        "_count",
        "_width",
        "_inv_width",
        "_sparse_streak",
        "calendar_resizes",
    )

    def __init__(self, bucket_width: float = 1.0) -> None:
        if not (bucket_width > 0.0):
            raise ValueError(f"bucket_width must be > 0, got {bucket_width}")
        self._now = 0.0
        self._sequence = 0
        self._running = False
        # Always-on integer bookkeeping (a few adds per event — cheap, and
        # deterministic since nothing here feeds back into the model).
        self.events_processed = 0
        self.max_queue_depth = 0
        self._wall_seconds = 0.0
        # Recycled kernel-internal events (process init/relay).  Every resume
        # of an already-fired target otherwise allocates a fresh Event; at
        # millions of events per run that allocation is the kernel's hottest
        # line after the calendar itself.
        self._event_pool: list[Event] = []
        # -- calendar queue ---------------------------------------------------
        # _front is the heap-ordered head segment of the calendar: every
        # buffered entry whose bucket index is <= _front_hi.  All later
        # entries sit in unsorted per-bucket lists in _buckets, with the
        # pending bucket indices in the _bucket_keys min-heap.  _count is the
        # total number of buffered events.
        self._front: list[tuple[float, int, Event]] = []
        self._front_hi = 0
        self._buckets: dict[int, list[tuple[float, int, Event]]] = {}
        self._bucket_keys: list[int] = []
        self._count = 0
        self._width = float(bucket_width)
        self._inv_width = 1.0 / self._width
        self._sparse_streak = 0
        #: Lifetime count of adaptive bucket-width changes (observability).
        self.calendar_resizes = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def bucket_width(self) -> float:
        """Current calendar-queue bucket width in virtual seconds."""
        return self._width

    # -- factory helpers ------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a generator as a process; returns the process event."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Barrier over *events*."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Race over *events*."""
        return AnyOf(self, events)

    def _internal_event(self) -> Event:
        """A pooled kernel-internal event (recycled by :meth:`step`)."""
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.callbacks = []
            event._value = _PENDING
            event._ok = None
            event._defused = False
            return event
        event = Event(self)
        event._poolable = True
        return event

    # -- calendar --------------------------------------------------------------
    def _enqueue(self, event: Event, delay: float) -> None:
        when = self._now + delay
        seq = self._sequence
        self._sequence = seq + 1
        entry = (when, seq, event)
        try:
            idx = int(when * self._inv_width)
        except (OverflowError, ValueError):  # pragma: no cover - inf/nan delay
            idx = _FAR_BUCKET
        front = self._front
        if front:
            if idx <= self._front_hi:
                heappush(front, entry)
            else:
                bucket = self._buckets.get(idx)
                if bucket is None:
                    self._buckets[idx] = [entry]
                    heappush(self._bucket_keys, idx)
                else:
                    bucket.append(entry)
        elif self._bucket_keys and idx >= self._bucket_keys[0]:
            # The front drained and this entry belongs at-or-behind the next
            # pending bucket: keep it bucketed so _advance stays in charge.
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [entry]
                heappush(self._bucket_keys, idx)
            else:
                bucket.append(entry)
        else:
            # Empty calendar front, and nothing pending earlier: this entry
            # *is* the new front.
            front.append(entry)
            self._front_hi = idx
        count = self._count + 1
        self._count = count
        if count > self.max_queue_depth:
            self.max_queue_depth = count

    def _advance(self) -> None:
        """Activate the earliest pending bucket as the new calendar front.

        Also the adaptive-resize hook: activation is the one moment a whole
        bucket is visible at once, so density statistics are free here.
        """
        keys = self._bucket_keys
        if not keys:
            return
        idx = heappop(keys)
        bucket = self._buckets.pop(idx)
        n = len(bucket)
        if n > _SHRINK_ENTRIES:
            distinct = len({entry[0] for entry in bucket})
            if distinct > _SHRINK_DISTINCT and self._width > _MIN_WIDTH:
                # Overfull bucket with genuinely spread timestamps (not one
                # big same-time batch): narrow toward the target density.
                lo = min(entry[0] for entry in bucket)
                hi = max(entry[0] for entry in bucket)
                span = hi - lo
                if span > 0.0:
                    new_width = max(
                        span * _TARGET_DISTINCT / distinct, _MIN_WIDTH
                    )
                    self._front_hi = idx  # make the bucket the front first
                    heapify(bucket)
                    self._front[:] = bucket
                    self._set_width(new_width)
                    return
            self._sparse_streak = 0
        elif n <= 1:
            self._sparse_streak += 1
            if (
                self._sparse_streak >= _GROW_STREAK
                and len(keys) > _GROW_STREAK
                and self._width < _MAX_WIDTH
            ):
                self._sparse_streak = 0
                self._front_hi = idx
                self._front[:] = bucket
                self._set_width(min(self._width * _GROW_FACTOR, _MAX_WIDTH))
                return
        else:
            self._sparse_streak = 0
        heapify(bucket)
        self._front[:] = bucket
        self._front_hi = idx

    def _set_width(self, width: float) -> None:
        """Rebuild the calendar with a new bucket width (order-preserving)."""
        entries = list(self._front)
        for bucket in self._buckets.values():
            entries.extend(bucket)
        self.calendar_resizes += 1
        self._width = float(width)
        self._inv_width = 1.0 / self._width
        self._buckets.clear()
        self._bucket_keys.clear()
        self._front[:] = []
        if not entries:
            self._front_hi = 0
            return
        inv = self._inv_width
        min_when = min(entry[0] for entry in entries)
        try:
            hi = int(min_when * inv)
        except (OverflowError, ValueError):  # pragma: no cover - inf front
            hi = _FAR_BUCKET
        front = self._front
        buckets = self._buckets
        for entry in entries:
            try:
                idx = int(entry[0] * inv)
            except (OverflowError, ValueError):  # pragma: no cover
                idx = _FAR_BUCKET
            if idx <= hi:
                front.append(entry)
            else:
                bucket = buckets.get(idx)
                if bucket is None:
                    buckets[idx] = [entry]
                else:
                    bucket.append(entry)
        heapify(front)
        self._front_hi = hi
        self._bucket_keys[:] = buckets.keys()
        heapify(self._bucket_keys)

    def step(self) -> None:
        """Process exactly one event."""
        front = self._front
        if not front:
            self._advance()
            if not front:
                raise SimulationError("step() on an empty event calendar")
        when, _, event = heappop(front)
        if when < self._now:  # pragma: no cover - internal invariant
            raise SimulationError("event calendar went backwards in time")
        self._now = when
        self.events_processed += 1
        self._count -= 1
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # Nobody handled this failure: surface it, pointing at the model bug.
            raise event._value
        if event._poolable:
            # Recycled only *after* the failure check above read _ok, and only
            # here — internal events have exactly one callback (the process
            # resume) and no outside references survive processing.
            self._event_pool.append(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the calendar is empty."""
        front = self._front
        if not front:
            self._advance()
            if not front:
                return float("inf")
        return front[0][0]

    def stats(self) -> SimStats:
        """Kernel counters: event totals, queue depths, sim-vs-wall time.

        ``events_scheduled`` counts every event ever enqueued;
        ``queue_depth`` and ``max_queue_depth`` count *buffered* events
        across the whole calendar — the heap-ordered front segment plus
        every pending bucket; ``wall_seconds`` accumulates real
        time spent inside :meth:`run`, so ``stats().sim_per_wall`` is the
        simulator's speed ratio.
        """
        return SimStats(
            now=self._now,
            events_scheduled=self._sequence,
            events_processed=self.events_processed,
            queue_depth=self._count,
            max_queue_depth=self.max_queue_depth,
            wall_seconds=self._wall_seconds,
        )

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until the calendar drains.
        * ``until=<float>`` — run until virtual time reaches that instant.
        * ``until=<Event>`` — run until the event is processed; returns its
          value (raising if it failed).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        wall_start = time.perf_counter()
        try:
            # Local bindings: these loops are the kernel's hottest lines.
            step = self.step
            if until is None:
                while self._count:
                    step()
                return None
            if isinstance(until, Event):
                target = until
                while target.callbacks is not None:
                    if not self._count:
                        raise SimulationError(
                            "calendar drained before the awaited event triggered (deadlock)"
                        )
                    step()
                if not target._ok:
                    target.defuse()
                    raise target._value
                return target._value
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(f"cannot run until {horizon} (< now={self._now})")
            peek = self.peek
            while self._count and peek() <= horizon:
                step()
            self._now = max(self._now, horizon)
            return None
        finally:
            self._running = False
            self._wall_seconds += time.perf_counter() - wall_start
