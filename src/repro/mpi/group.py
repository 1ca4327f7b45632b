"""Rank subgroups: collectives over a subset of world ranks.

HPL communicates along process-grid rows (panel broadcast) and columns
(pivot exchanges, U broadcast).  A :class:`Group` wraps a world communicator
plus an ordered member list and inherits the full collective set from
:class:`~repro.mpi.comm.CollectiveComm` on translated ranks, so grid code
can say ``yield from row_group.bcast(...)``.  ``comm.split(color, key)``
builds these (the simulated MPI_Comm_split); :meth:`ProcessGrid.row_comm`
and :meth:`ProcessGrid.col_comm <repro.hpl.grid.ProcessGrid>` build them
directly from grid topology without a collective exchange.

Messages inside a group travel with tags namespaced by ``tag_space`` so two
groups over the same ranks (e.g. a row and a column sharing a corner rank)
never steal each other's traffic.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from repro.mpi.comm import _UNHASHABLE, CollectiveComm, SimComm
from repro.sim import Event
from repro.util.validation import require


class Group(CollectiveComm):
    """An ordered subset of world ranks, viewed from one member."""

    def __init__(self, comm: SimComm, members: Sequence[int], tag_space: Any = "grp") -> None:
        members = list(members)
        require(len(members) >= 1, "a group needs at least one member")
        require(len(set(members)) == len(members), "duplicate ranks in group")
        require(comm.rank in members, f"rank {comm.rank} not in group {members}")
        self.comm = comm
        self.members = members
        self.local_rank = members.index(comm.rank)
        self.tag_space = tag_space
        self.size = len(members)
        self._lrank = self.local_rank
        self._world = comm.world
        self._world_rank = comm.rank
        # Tag memo: grid collectives reuse a small set of tags, so each tag's
        # namespaced (tag_space, tag) wrapper and its world tag id are built
        # once per tag space and world, not once per message or member.
        try:
            self._wired = comm.world._group_tags.setdefault(tag_space, {})
        except TypeError:  # unhashable tag space: a memo of this group's own
            self._wired = {}

    def _wire(self, tag: Any) -> tuple[Any, int]:
        """The namespaced wire tag for *tag* and its interned world id."""
        wired = self._wired
        try:
            cached = wired.get(tag)
        except TypeError:  # unhashable tag: wildcard path, wrapper each time
            return (self.tag_space, tag), _UNHASHABLE
        if cached is None:
            wrapped = (self.tag_space, tag)
            cached = wired[tag] = (wrapped, self._world._intern_tag(wrapped))
        return cached

    # -- point to point (local-rank addressed) ------------------------------------
    def send(self, payload: Any, dest_local: int, tag: Any = 0) -> Generator[Event, Any, None]:
        """Send to the group member at *dest_local*."""
        yield self._lisend(payload, dest_local, tag)

    def recv(self, source_local: int, tag: Any = 0) -> Generator[Event, Any, Any]:
        """Receive from the group member at *source_local*."""
        return (yield self._lirecv(source_local, tag)).payload

    # -- CollectiveComm surface ---------------------------------------------------
    def _lisend(self, payload: Any, dest: int, tag: Any) -> Event:
        wrapped, tag_id = self._wire(tag)
        return self._world._post(self._world_rank, self.members[dest], wrapped, tag_id, payload)

    def _lirecv(self, source: int, tag: Any) -> Event:
        wrapped, tag_id = self._wire(tag)
        return self.comm._irecv(self.members[source], wrapped, tag_id)

    def _lirecv_any(self, tag: Any) -> Event:
        wrapped, tag_id = self._wire(tag)
        return self.comm._irecv(None, wrapped, tag_id)

    def _world_rank_of(self, local: int) -> int:
        return self.members[local]

    def _base_comm(self) -> SimComm:
        return self.comm

    def _tag_space(self) -> Any:
        return self.tag_space

    # -- ``root_local`` spellings: hand back the shared collective's generator --
    def bcast(  # type: ignore[override]
        self,
        payload: Any,
        root_local: int = 0,
        algorithm: str = "binomial",
        tag: Any = "__b__",
    ) -> Generator[Event, Any, Any]:
        """Broadcast from the member at *root_local* to the whole group."""
        return CollectiveComm.bcast(self, payload, root=root_local, algorithm=algorithm, tag=tag)

    def gather(  # type: ignore[override]
        self, payload: Any, root_local: int = 0, tag: Any = "__g__"
    ) -> Generator[Event, Any, Optional[list]]:
        """Gather members' payloads (local-rank order) at *root_local*."""
        return CollectiveComm.gather(self, payload, root=root_local, tag=tag)

    def scatterv(  # type: ignore[override]
        self, parts: Optional[list], root_local: int = 0, tag: Any = "__sv__"
    ) -> Generator[Event, Any, Any]:
        """Scatter one piece per member from *root_local*."""
        return CollectiveComm.scatterv(self, parts, root=root_local, tag=tag)

    def reduce(  # type: ignore[override]
        self,
        value: Any,
        op=lambda a, b: a + b,
        root_local: int = 0,
        tag: Any = "__r__",
    ) -> Generator[Event, Any, Any]:
        """Reduce to the member at *root_local* (None elsewhere)."""
        return CollectiveComm.reduce(self, value, op=op, root=root_local, tag=tag)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Group {self.members} local {self.local_rank} tags {self.tag_space!r}>"
