"""Shared resources for the DES kernel: counted resources, stores, links.

These model the contention points the paper cares about: the single dedicated
transfer thread per compute element (a capacity-1 :class:`Resource`), task
queues (:class:`Store`), and the PCIe / InfiniBand hops
(:class:`BandwidthChannel`, a FIFO latency+bandwidth pipe).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Event, SimulationError, Simulator, Timeout
from repro.util.validation import require_nonnegative, require_positive


class Request(Event):
    """A pending acquisition of a :class:`Resource`; usable as a context manager."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with FIFO granting.

    ``capacity=1`` is a mutex — e.g. the one CPU core the paper dedicates to
    CPU↔GPU transfers, which serialises the pipeline's input and output
    stages ("only one thread in our implementation is dedicated to transfer
    data with GPU", §V.C).
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._holders: set[Request] = set()
        self._waiting: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted requests."""
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for one unit; the returned event succeeds when granted."""
        req = Request(self)
        if len(self._holders) < self.capacity:
            self._holders.add(req)
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return one unit previously granted to *request*.

        Releasing a request that was never granted (still waiting) cancels it
        instead, so ``with``-style usage is exception-safe.
        """
        if request in self._holders:
            self._holders.discard(request)
            while self._waiting and len(self._holders) < self.capacity:
                nxt = self._waiting.popleft()
                self._holders.add(nxt)
                nxt.succeed(nxt)
        else:
            try:
                self._waiting.remove(request)
            except ValueError:
                raise SimulationError("release() of a request this resource never granted")


class Store:
    """An unbounded-or-bounded FIFO item queue with blocking get/put events."""

    def __init__(self, sim: Simulator, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Offer *item*; the returned event succeeds once the item is stored."""
        event = Event(self.sim)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed(None)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed(None)
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Take the oldest item; the returned event succeeds with the item."""
        event = Event(self.sim)
        if self._items:
            item = self._items.popleft()
            if self._putters:
                put_event, pending = self._putters.popleft()
                self._items.append(pending)
                put_event.succeed(None)
            event.succeed(item)
        else:
            self._getters.append(event)
        return event


class BandwidthChannel:
    """A FIFO latency+bandwidth pipe.

    Transfers are serialised in submission order (one DMA engine / one NIC
    port).  A transfer of ``nbytes`` occupies the pipe for
    ``latency + nbytes / bandwidth`` seconds.  The channel keeps utilisation
    counters so benchmarks can report how well pipelining hid communication.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "link",
    ) -> None:
        self.sim = sim
        self.bandwidth = require_positive(bandwidth, "bandwidth")
        self.latency = require_nonnegative(latency, "latency")
        self.name = name
        self._busy_until = 0.0
        self.bytes_transferred = 0.0
        self.busy_time = 0.0
        self.transfer_count = 0

    def transfer_duration(self, nbytes: float) -> float:
        """Pure service time of a transfer, excluding queueing."""
        if not nbytes >= 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        return self.latency + nbytes / self.bandwidth

    def transfer(self, nbytes: float) -> Timeout:
        """Submit a transfer; the returned event fires when it completes.

        Queueing behind earlier transfers is accounted for: the event fires at
        ``max(now, previous end) + latency + nbytes/bandwidth``.
        """
        duration = self.transfer_duration(nbytes)
        sim = self.sim
        now = sim.now
        end = max(now, self._busy_until) + duration
        self._busy_until = end
        self.bytes_transferred += nbytes
        self.busy_time += duration
        self.transfer_count += 1
        return Timeout(sim, end - now, nbytes)

    @property
    def backlog(self) -> float:
        """Seconds of already-committed work ahead of a new transfer."""
        return max(0.0, self._busy_until - self.sim.now)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of (now or *elapsed*) the pipe spent busy."""
        window = self.sim.now if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_time / window)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BandwidthChannel {self.name} bw={self.bandwidth:.3g} B/s lat={self.latency:.3g}s>"
