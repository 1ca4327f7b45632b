"""Simulated communicator: mailboxes + interconnect timing + collectives.

Semantics:

* ``send`` is *rendezvous-free*: the returned generator completes when the
  message has been injected and delivered to the destination mailbox (one
  alpha-beta network traversal).
* ``recv`` blocks (in virtual time) until a matching ``(source, tag)``
  message is available; messages between the same pair with the same tag
  arrive in order.
* Collectives are generator functions; every participating rank must call
  the same collective.  When the simulator drains with ranks still waiting
  inside one, :func:`run_ranks` turns the drained-calendar error into a
  :class:`CollectiveDeadlockError` naming the stuck ranks, the collective,
  and the tag.

The full collective set (``bcast``/``gather``/``scatterv``/``allgather``/
``reduce``/``allreduce``/``barrier``/``split``) lives in
:class:`CollectiveComm` and is written against *local-rank* primitives, so
the world communicator (:class:`SimComm`) and any sub-communicator
(:class:`~repro.mpi.group.Group`, including the ones ``split`` builds) share
one implementation.  Panel-broadcast algorithms (HPL's BCAST family) live in
:mod:`repro.mpi.bcast`.

Payload sizes are taken from the objects themselves (numpy arrays report
their real ``nbytes``), so algorithmic message volumes are faithful.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Callable, Generator, Optional

import numpy as np

from repro.machine.interconnect import Interconnect
from repro.mpi.bcast import ALGORITHMS, canonical_algorithm
from repro.sim import Event, SimulationError, Simulator, Timeout
from repro.util.validation import require


def payload_nbytes(obj: Any) -> float:
    """Wire size of a message payload.

    Arrays report their true ``nbytes`` (0-byte arrays are free); containers
    add 16 bytes of framing per element; dataclasses are costed field by
    field; an object may pin its own wire size via a ``wire_nbytes``
    attribute (the zero-byte filler pieces of the ``long`` broadcast do).
    """
    if obj is None:
        return 8.0
    if isinstance(obj, np.ndarray):
        return float(obj.nbytes)
    wire = getattr(obj, "wire_nbytes", None)
    if wire is not None and not callable(wire):
        return float(wire)
    if isinstance(obj, (bool, int, float, np.integer, np.floating, np.bool_)):
        return 8.0
    if isinstance(obj, (tuple, list)):
        total = 0
        for x in obj:
            total += payload_nbytes(x)
        return total + 16.0
    if isinstance(obj, dict):
        return (
            sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
            + 16.0 * len(obj)
        )
    if isinstance(obj, (bytes, bytearray, str)):
        return float(len(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = dataclasses.fields(obj)
        return (
            sum(payload_nbytes(getattr(obj, f.name)) for f in fields)
            + 16.0 * len(fields)
        )
    return 64.0  # pickled small object


class _Message:
    """A posted payload with its routing metadata.

    ``taken`` supports the mailbox's lazy multi-index invalidation: a message
    consumed through one index leaves flagged carcasses in the others, which
    are discarded when they surface at a deque front.
    """

    __slots__ = ("src", "tag", "payload", "taken")

    def __init__(self, src: int, tag: Any, payload: Any) -> None:
        self.src = src
        self.tag = tag
        self.payload = payload
        self.taken = False


#: Interned-tag sentinel for unhashable tags (they ride the wildcard path).
_UNHASHABLE = -1


class _Mailbox:
    """Per-rank in-order mailbox with (source, tag) matching.

    The matching hot path is keyed, not scanned: every message is indexed
    under its interned ``tag_id * n_ranks + src`` key and under its bare
    ``tag_id``, both arrival-ordered, so the collective machinery's exact
    ``(source, tag)`` receives and gather's ``(ANY, tag)`` receives are O(1)
    dict+deque operations regardless of how much unrelated traffic is
    buffered.  A full arrival-order deque backs the rare wildcard receives
    (``source=None``/``tag=None`` through the public API, unhashable tags).
    Consuming through one index marks the message ``taken``; stale carcasses
    in the other indexes are popped lazily when they reach a deque front
    (every index is pruned as it is touched, so garbage stays bounded by the
    live backlog in FIFO workloads).

    Pending receives (waiters) are the matching structures mirrored: keyed
    deques of ``(seq, event)`` plus a wildcard list, with a global sequence
    so a delivery always wakes the **earliest-posted** matching waiter —
    exactly the FIFO semantics of the old single-deque predicate scan.
    """

    __slots__ = (
        "sim",
        "n_ranks",
        "_by_key",
        "_by_tag",
        "_arrivals",
        "_wait_by_key",
        "_wait_by_tag",
        "_wait_wild",
        "_wseq",
    )

    def __init__(self, sim: Simulator, n_ranks: int) -> None:
        self.sim = sim
        self.n_ranks = n_ranks
        self._by_key: dict[int, deque[_Message]] = {}
        self._by_tag: dict[int, deque[_Message]] = {}
        self._arrivals: deque[_Message] = deque()
        self._wait_by_key: dict[int, deque[tuple[int, Event]]] = {}
        self._wait_by_tag: dict[int, deque[tuple[int, Event]]] = {}
        self._wait_wild: list[tuple[int, Optional[int], Any, Event]] = []
        self._wseq = 0

    def deliver(self, message: _Message, tag_id: int) -> None:
        src = message.src
        # Earliest-posted matching waiter wins, across all waiter classes.
        best_seq: Optional[int] = None
        key = -1
        key_q = tag_q = None
        if tag_id != _UNHASHABLE:
            key = tag_id * self.n_ranks + src
            key_q = self._wait_by_key.get(key)
            if key_q:
                best_seq = key_q[0][0]
            tag_q = self._wait_by_tag.get(tag_id)
            if tag_q and (best_seq is None or tag_q[0][0] < best_seq):
                best_seq = tag_q[0][0]
        wild_at = -1
        if self._wait_wild:
            tag = message.tag
            for i, (seq, w_src, w_tag, _event) in enumerate(self._wait_wild):
                if best_seq is not None and seq > best_seq:
                    break
                if (w_src is None or w_src == src) and (w_tag is None or w_tag == tag):
                    best_seq = seq
                    wild_at = i
                    break
        if best_seq is not None:
            if wild_at >= 0:
                event = self._wait_wild.pop(wild_at)[3]
            elif key_q and key_q[0][0] == best_seq:
                event = key_q.popleft()[1]
            else:
                assert tag_q is not None
                event = tag_q.popleft()[1]
            event.succeed(message)
            return
        # No waiter: index the message (pruning each front as it is touched).
        arrivals = self._arrivals
        while arrivals and arrivals[0].taken:
            arrivals.popleft()
        arrivals.append(message)
        if tag_id != _UNHASHABLE:
            bucket = self._by_key.get(key)
            if bucket is None:
                self._by_key[key] = deque((message,))
            else:
                while bucket and bucket[0].taken:
                    bucket.popleft()
                bucket.append(message)
            bucket = self._by_tag.get(tag_id)
            if bucket is None:
                self._by_tag[tag_id] = deque((message,))
            else:
                while bucket and bucket[0].taken:
                    bucket.popleft()
                bucket.append(message)

    def _next_seq(self) -> int:
        seq = self._wseq
        self._wseq = seq + 1
        return seq

    def take_exact(self, key: int) -> Event:
        """Receive the earliest message matching an interned (tag, src) key."""
        event = Event(self.sim)
        bucket = self._by_key.get(key)
        if bucket:
            while bucket:
                message = bucket.popleft()
                if not message.taken:
                    message.taken = True
                    event.succeed(message)
                    return event
        waiters = self._wait_by_key.get(key)
        if waiters is None:
            waiters = self._wait_by_key[key] = deque()
        waiters.append((self._next_seq(), event))
        return event

    def take_tag(self, tag_id: int) -> Event:
        """Receive the earliest message with this tag from any source."""
        event = Event(self.sim)
        bucket = self._by_tag.get(tag_id)
        if bucket:
            while bucket:
                message = bucket.popleft()
                if not message.taken:
                    message.taken = True
                    event.succeed(message)
                    return event
        waiters = self._wait_by_tag.get(tag_id)
        if waiters is None:
            waiters = self._wait_by_tag[tag_id] = deque()
        waiters.append((self._next_seq(), event))
        return event

    def take_wild(self, source: Optional[int], tag: Any) -> Event:
        """Receive by linear arrival-order scan (wildcards, unhashable tags)."""
        event = Event(self.sim)
        arrivals = self._arrivals
        while arrivals and arrivals[0].taken:
            arrivals.popleft()
        for i, message in enumerate(arrivals):
            if message.taken:
                continue
            if (source is None or message.src == source) and (
                tag is None or message.tag == tag
            ):
                message.taken = True
                del arrivals[i]
                event.succeed(message)
                return event
        self._wait_wild.append((self._next_seq(), source, tag, event))
        return event


class CollectiveDeadlockError(SimulationError):
    """The calendar drained while ranks were blocked inside a collective."""


class SimMPI:
    """The world: one communicator handle per rank over one interconnect.

    With ``record_log=True`` every message injection and delivery is appended
    to :attr:`log` as ``(kind, time, src, dst, tag, nbytes)`` tuples (kind is
    ``"post"`` or ``"dlv"``, tags stringified via ``repr``) — the event trace
    the determinism tests compare byte-for-byte between runs.
    """

    def __init__(
        self,
        sim: Simulator,
        n_ranks: int,
        interconnect: Optional[Interconnect] = None,
        record_log: bool = False,
    ) -> None:
        require(n_ranks >= 1, "n_ranks must be >= 1")
        self.sim = sim
        self.n_ranks = n_ranks
        self.network = interconnect
        self._mailboxes = [_Mailbox(sim, n_ranks) for _ in range(n_ranks)]
        self.messages_sent = 0
        self.bytes_sent = 0.0
        self.log: Optional[list[tuple]] = [] if record_log else None
        # Tag interning: every distinct tag value gets a small integer id
        # (and a cached repr for the record_log), so the mailbox hot path
        # works on pre-hashed int keys instead of re-hashing tuple tags and
        # re-formatting strings per message.
        self._tag_ids: dict[Any, int] = {}
        self._tag_reprs: list[str] = []
        # Sub-communicator tag memos, one per tag space (see Group._wire):
        # tag -> (namespaced tag, its id), shared by every Group that uses
        # the same tag space in this world.
        self._group_tags: dict[Any, dict[Any, tuple[Any, int]]] = {}
        # Per-rank stack of (collective name, tag) currently entered; a
        # non-empty stack after the calendar drains means that rank is stuck.
        self._in_collective: list[list[tuple[str, Any]]] = [
            [] for _ in range(n_ranks)
        ]

    def comm(self, rank: int) -> "SimComm":
        require(0 <= rank < self.n_ranks, f"rank {rank} out of range")
        return SimComm(self, rank)

    def comms(self) -> list["SimComm"]:
        """One communicator per rank (convenience for spawning rank processes)."""
        return [self.comm(r) for r in range(self.n_ranks)]

    def _intern_tag(self, tag: Any) -> int:
        """The small-int id (and cached repr) for *tag*.

        Unhashable tags get the :data:`_UNHASHABLE` sentinel and travel the
        mailbox's wildcard scan path instead of the keyed indexes.
        """
        try:
            tag_id = self._tag_ids.get(tag)
        except TypeError:
            return _UNHASHABLE
        if tag_id is None:
            tag_id = len(self._tag_reprs)
            self._tag_ids[tag] = tag_id
            self._tag_reprs.append(repr(tag))
        return tag_id

    def _post(self, src: int, dst: int, tag: Any, tag_id: int, payload: Any) -> Event:
        """Inject a message (*tag_id* is ``_intern_tag(tag)``); returns the delivery event."""
        if not 0 <= dst < self.n_ranks:
            raise ValueError(f"dest {dst} out of range")
        nbytes = payload_nbytes(payload)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        sim = self.sim
        if self.log is not None:
            tag_repr = repr(tag) if tag_id == _UNHASHABLE else self._tag_reprs[tag_id]
            self.log.append(("post", sim.now, src, dst, tag_repr, nbytes))
        network = self.network
        transit = Timeout(sim, 0.0) if network is None else network.send(src, dst, nbytes)
        done = Event(sim)

        def on_arrival(_event: Event) -> None:
            if self.log is not None:
                self.log.append(("dlv", self.sim.now, src, dst, tag_repr, nbytes))
            self._mailboxes[dst].deliver(_Message(src, tag, payload), tag_id)
            done.succeed(None)

        transit.callbacks.append(on_arrival)  # a fresh event: not yet processed
        return done

    # -- blocked-collective bookkeeping -------------------------------------------
    def _collective_enter(self, rank: int, name: str, tag: Any) -> None:
        self._in_collective[rank].append((name, tag))

    def _collective_exit(self, rank: int) -> None:
        self._in_collective[rank].pop()

    def blocked_collectives(self) -> dict[int, tuple[str, Any]]:
        """rank -> (collective, tag) for every rank inside a collective now.

        Innermost entry per rank (a barrier blocks in its allreduce's bcast:
        the bcast is reported).  Empty when no rank is mid-collective.
        """
        return {
            rank: stack[-1]
            for rank, stack in enumerate(self._in_collective)
            if stack
        }

    def describe_blocked(self) -> str:
        blocked = self.blocked_collectives()
        parts = [
            f"rank {rank} in {name}(tag={tag!r})"
            for rank, (name, tag) in blocked.items()
        ]
        return (
            "simulation deadlocked with ranks blocked in collectives: "
            + "; ".join(parts)
        )


class CollectiveComm:
    """The shared collective set, over abstract local-rank primitives.

    Subclasses set the attributes :attr:`size`, ``_lrank`` (this process's
    rank within the communicator) and ``_world``/``_world_rank`` (for
    deadlock bookkeeping), and provide the ``_lisend``/``_lirecv``/
    ``_lirecv_any`` event primitives; every collective below is expressed
    purely in those, so world and sub-communicators behave identically.
    The collectives yield the primitives' events directly: a received
    event's value is the message, whose ``payload`` is the data.
    """

    size: int
    _lrank: int
    _world: SimMPI
    _world_rank: int

    # -- subclass surface ---------------------------------------------------------
    def _lisend(self, payload: Any, dest: int, tag: Any) -> Event:
        raise NotImplementedError

    def _lirecv(self, source: int, tag: Any) -> Event:
        raise NotImplementedError

    def _lirecv_any(self, tag: Any) -> Event:
        raise NotImplementedError

    def _world_rank_of(self, local: int) -> int:
        """Translate a local rank to a world rank."""
        raise NotImplementedError

    def _base_comm(self) -> "SimComm":
        """This process's world communicator (for building sub-groups)."""
        raise NotImplementedError

    def _tag_space(self) -> Any:
        """A communicator-identifying value used to namespace derived comms."""
        raise NotImplementedError

    # -- collectives --------------------------------------------------------------
    def bcast(
        self,
        payload: Any,
        root: int = 0,
        algorithm: str = "binomial",
        tag: Any = "__bcast__",
    ) -> Generator[Event, Any, Any]:
        """Broadcast from *root*; returns the payload on every rank.

        *algorithm* selects the HPL BCAST family member (see
        :mod:`repro.mpi.bcast`): ``binomial``, ``1ring`` (alias ``ring``),
        ``1rm``, or ``long``.
        """
        fn = ALGORITHMS[canonical_algorithm(algorithm)]
        if self.size == 1:
            return payload
        self._world._collective_enter(self._world_rank, "bcast", tag)
        try:
            return (yield from fn(self, payload, root, tag))
        finally:
            self._world._collective_exit(self._world_rank)

    def gather(
        self, payload: Any, root: int = 0, tag: Any = "__gather__"
    ) -> Generator[Event, Any, Optional[list]]:
        """Gather payloads to *root*; returns the rank-ordered list there."""
        self._world._collective_enter(self._world_rank, "gather", tag)
        try:
            if self._lrank != root:
                yield self._lisend((self._lrank, payload), root, tag)
                return None
            items: dict[int, Any] = {root: payload}
            for _ in range(self.size - 1):
                src, item = (yield self._lirecv_any(tag)).payload
                items[src] = item
            return [items[r] for r in range(self.size)]
        finally:
            self._world._collective_exit(self._world_rank)

    def scatterv(
        self, parts: Optional[list], root: int = 0, tag: Any = "__scatterv__"
    ) -> Generator[Event, Any, Any]:
        """Scatter one piece per rank from *root*; returns this rank's piece.

        *parts* (length ``size``, possibly ragged — hence the ``v``) is only
        read on the root; other ranks pass ``None``.
        """
        self._world._collective_enter(self._world_rank, "scatterv", tag)
        try:
            if self._lrank == root:
                parts = list(parts)
                require(
                    len(parts) == self.size,
                    f"scatterv needs {self.size} parts, got {len(parts)}",
                )
                for r in range(self.size):
                    if r != root:
                        yield self._lisend(parts[r], r, tag)
                return parts[root]
            return (yield self._lirecv(root, tag)).payload
        finally:
            self._world._collective_exit(self._world_rank)

    def allgather(
        self, payload: Any, tag: Any = "__allgather__"
    ) -> Generator[Event, Any, list]:
        """Every rank's payload on every rank (ring algorithm, P-1 rounds)."""
        self._world._collective_enter(self._world_rank, "allgather", tag)
        try:
            p = self.size
            items: list[Any] = [None] * p
            items[self._lrank] = payload
            right = (self._lrank + 1) % p
            left = (self._lrank - 1) % p
            current = payload
            for k in range(p - 1):
                yield self._lisend(current, right, (tag, k))
                current = (yield self._lirecv(left, (tag, k))).payload
                items[(self._lrank - k - 1) % p] = current
            return items
        finally:
            self._world._collective_exit(self._world_rank)

    def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
        root: int = 0,
        tag: Any = "__reduce__",
    ) -> Generator[Event, Any, Any]:
        """Binomial-tree reduction to *root* (None elsewhere).

        Combination is absolute-rank-ordered (the MPI contract for
        non-commutative ``op``): the tree folds toward rank 0 in rank order
        — each rank combines its own block before the higher block it
        receives — and the total hops to *root* when the two differ.
        """
        self._world._collective_enter(self._world_rank, "reduce", tag)
        try:
            p = self.size
            r = self._lrank
            mask = 1
            while mask < p:
                if r & mask:
                    yield self._lisend(value, r - mask, (tag, mask))
                    value = None
                    break
                if r + mask < p:
                    other = (yield self._lirecv(r + mask, (tag, mask))).payload
                    value = op(value, other)
                mask <<= 1
            if root != 0:
                if r == 0:
                    yield self._lisend(value, root, (tag, "root"))
                    value = None
                elif r == root:
                    value = (yield self._lirecv(0, (tag, "root"))).payload
            return value
        finally:
            self._world._collective_exit(self._world_rank)

    def allreduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
        tag: Any = "__allreduce__",
    ) -> Generator[Event, Any, Any]:
        """Reduce-to-all via recursive doubling (works for any power; falls
        back to gather+bcast for non-power-of-two sizes)."""
        p = self.size
        if p == 1:
            return value
        self._world._collective_enter(self._world_rank, "allreduce", tag)
        try:
            if p & (p - 1) == 0:
                mask = 1
                while mask < p:
                    peer = self._lrank ^ mask
                    self._lisend(value, peer, (tag, mask))
                    other = (yield self._lirecv(peer, (tag, mask))).payload
                    value = op(value, other) if self._lrank < peer else op(other, value)
                    mask <<= 1
                return value
            gathered = yield from self.gather(value, root=0, tag=(tag, "g"))
            if self._lrank == 0:
                total = gathered[0]
                for item in gathered[1:]:
                    total = op(total, item)
            else:
                total = None
            return (yield from self.bcast(total, root=0, tag=(tag, "b")))
        finally:
            self._world._collective_exit(self._world_rank)

    def barrier(self) -> Generator[Event, Any, None]:
        """Synchronise all ranks."""
        yield from self.allreduce(0, tag="__barrier__")

    def split(
        self, color: Any, key: Optional[int] = None, tag: Any = "__split__"
    ) -> Generator[Event, Any, Optional["Any"]]:
        """MPI_Comm_split: partition this communicator by *color*.

        Collective — every rank must call it.  Returns a
        :class:`~repro.mpi.group.Group` containing the ranks that passed the
        same color, ordered by ``(key, local rank)`` (``key=None`` keeps rank
        order, matching ``MPI_UNDEFINED``-free usage); ranks passing
        ``color=None`` participate in the exchange but get ``None`` back.
        """
        entries = yield from self.allgather((color, key, self._lrank), tag=(tag, "x"))
        if color is None:
            return None
        ranked = sorted(
            ((k if k is not None else lr, lr) for c, k, lr in entries if c == color)
        )
        members = [self._world_rank_of(lr) for _, lr in ranked]
        from repro.mpi.group import Group  # deferred: group imports this module

        return Group(
            self._base_comm(),
            members,
            tag_space=(self._tag_space(), "split", color),
        )


class SimComm(CollectiveComm):
    """One rank's view of the world (mpi4py-flavoured API)."""

    def __init__(self, world: SimMPI, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.n_ranks
        self._lrank = rank
        self._world = world
        self._world_rank = rank

    @property
    def sim(self) -> Simulator:
        return self.world.sim

    # -- point to point -----------------------------------------------------------
    def isend(self, payload: Any, dest: int, tag: Any = 0) -> Event:
        """Post a send; the event completes on delivery."""
        world = self.world
        return world._post(self.rank, dest, tag, world._intern_tag(tag), payload)

    def send(self, payload: Any, dest: int, tag: Any = 0) -> Generator[Event, Any, None]:
        """Blocking send (generator): completes when delivered."""
        yield self.isend(payload, dest, tag)

    def irecv(self, source: Optional[int] = None, tag: Any = None) -> Event:
        """Post a receive; the event succeeds with the matching message."""
        if tag is None:
            return self.world._mailboxes[self.rank].take_wild(source, None)
        return self._irecv(source, tag, self.world._intern_tag(tag))

    def _irecv(self, source: Optional[int], tag: Any, tag_id: int) -> Event:
        """:meth:`irecv` of a non-None *tag* interned as *tag_id*."""
        mailbox = self.world._mailboxes[self.rank]
        if tag_id == _UNHASHABLE:
            return mailbox.take_wild(source, tag)
        if source is None:
            return mailbox.take_tag(tag_id)
        return mailbox.take_exact(tag_id * self.world.n_ranks + source)

    def recv(
        self, source: Optional[int] = None, tag: Any = None
    ) -> Generator[Event, Any, Any]:
        """Blocking receive (generator): returns the payload."""
        message = yield self.irecv(source, tag)
        return message.payload

    def sendrecv(
        self, payload: Any, peer: int, tag: Any = 0
    ) -> Generator[Event, Any, Any]:
        """Simultaneous exchange with *peer* (both sides must call it)."""
        self.isend(payload, peer, tag)
        message = yield self.irecv(peer, tag)
        return message.payload

    # -- CollectiveComm surface ---------------------------------------------------
    def _lisend(self, payload: Any, dest: int, tag: Any) -> Event:
        return self.isend(payload, dest, tag)

    def _lirecv(self, source: int, tag: Any) -> Event:
        return self.irecv(source, tag)

    def _lirecv_any(self, tag: Any) -> Event:
        return self.irecv(None, tag)

    def _world_rank_of(self, local: int) -> int:
        return local

    def _base_comm(self) -> "SimComm":
        return self

    def _tag_space(self) -> Any:
        return "world"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimComm rank {self.rank}/{self.size}>"


def run_ranks(
    sim: Simulator,
    world: SimMPI,
    rank_main: Callable[[SimComm], Generator[Event, Any, Any]],
    name: str = "rank",
) -> list:
    """Spawn ``rank_main(comm)`` on every rank and run all to completion.

    Returns the per-rank return values (rank order).  A drained calendar
    with ranks still inside a collective becomes a
    :class:`CollectiveDeadlockError` naming the stuck ranks, the collective,
    and the tag — instead of the engine's generic deadlock message.
    """
    procs = [
        sim.process(rank_main(comm), name=f"{name}{comm.rank}")
        for comm in world.comms()
    ]
    try:
        sim.run(until=sim.all_of(procs))
    except SimulationError as err:
        if world.blocked_collectives():
            raise CollectiveDeadlockError(world.describe_blocked()) from err
        raise
    return [proc.value for proc in procs]
