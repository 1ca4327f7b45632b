"""The node-to-node network (TianHe-1: two-level QDR InfiniBand switches).

A deliberately simple latency+bandwidth (alpha-beta) model: each rank owns
one injection port (a FIFO :class:`~repro.sim.BandwidthChannel`); a message
costs ``latency + bytes / bandwidth`` and serialises with other messages the
same sender has in flight.  The two-level fat tree of TianHe-1 is
approximated as full bisection (the paper never attributes performance
effects to topology, only to the 40 Gb/s / 1.2 us figures it quotes).
"""

from __future__ import annotations

from repro.machine.specs import InterconnectSpec
from repro.sim import BandwidthChannel, Event, Simulator, Timeout
from repro.util.validation import require


class Interconnect:
    """Per-rank injection ports over an ideal full-bisection core."""

    def __init__(self, sim: Simulator, spec: InterconnectSpec, n_ranks: int) -> None:
        require(n_ranks >= 1, "n_ranks must be >= 1")
        self.sim = sim
        self.spec = spec
        self.n_ranks = n_ranks
        self._ports: dict[int, BandwidthChannel] = {}

    def port(self, rank: int) -> BandwidthChannel:
        """The injection port of *rank* (created lazily)."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        channel = self._ports.get(rank)
        if channel is None:
            channel = BandwidthChannel(
                self.sim, self.spec.bandwidth, self.spec.latency, name=f"ib.port{rank}"
            )
            self._ports[rank] = channel
        return channel

    def send(self, src: int, dst: int, nbytes: float) -> Event:
        """Inject a message; the returned event fires when it is delivered.

        A self-send completes after the latency only (memcpy, no injection).
        """
        if not 0 <= dst < self.n_ranks:
            raise ValueError(f"rank {dst} out of range")
        if src == dst:
            return Timeout(self.sim, self.spec.latency, nbytes)
        channel = self._ports.get(src)  # present only once port() validated src
        if channel is None:
            channel = self.port(src)
        return channel.transfer(nbytes)

    def message_time(self, nbytes: float) -> float:
        """Uncontended alpha-beta time of one message."""
        return self.spec.latency + nbytes / self.spec.bandwidth

    def total_bytes(self) -> float:
        """Bytes injected so far across all ports."""
        return sum(port.bytes_transferred for port in self._ports.values())
