"""A small discrete-event simulation (DES) engine.

This is the substrate every hardware model in :mod:`repro.machine` runs on.
Real TianHe-1 time is replaced by a virtual clock; devices, transfer engines
and MPI ranks are generator-based processes; bandwidth and mutual exclusion
are resources.  The engine is a deliberately compact SimPy-style kernel:

* :class:`~repro.sim.engine.Simulator` — event loop and virtual clock.
* :class:`~repro.sim.engine.Event` / :class:`~repro.sim.engine.Timeout` —
  one-shot occurrences processes can wait on.
* :class:`~repro.sim.engine.Process` — a generator that ``yield``\\ s events;
  itself an event that succeeds with the generator's return value.
* :class:`~repro.sim.engine.AllOf` / :class:`~repro.sim.engine.AnyOf` —
  barrier / race combinators.
* :class:`~repro.sim.resources.Resource` — counted FIFO resource (a mutex at
  capacity 1: the paper's single dedicated transfer thread).
* :class:`~repro.sim.resources.Store` — FIFO item queue (task queues,
  mailboxes for the simulated MPI).
* :class:`~repro.sim.resources.BandwidthChannel` — a latency+bandwidth link
  that serialises transfers (PCIe hops, InfiniBand).
* :class:`~repro.sim.trace.Tracer` — timestamped trace records used to
  reconstruct pipeline schedules (the paper's Table I / Fig. 7).
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimStats,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import BandwidthChannel, Resource, Store
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Process",
    "SimulationError",
    "SimStats",
    "Simulator",
    "Timeout",
    "Resource",
    "Store",
    "BandwidthChannel",
    "TraceRecord",
    "Tracer",
]
