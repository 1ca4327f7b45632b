"""Process grids and block-cyclic data distribution (the HPL layout).

HPL arranges P*Q processes in a P x Q grid (row-major rank order) and
distributes the N x N matrix in NB x NB blocks cyclically: global row block
``i`` lives on grid row ``i % P``, global column block ``j`` on grid column
``j % Q``.  TianHe-1's full run used a 64 x 80 grid with NB = 1216
(Section VI.A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require, require_positive


@dataclass(frozen=True)
class ProcessGrid:
    """A P x Q grid with row-major rank numbering."""

    nprow: int
    npcol: int

    def __post_init__(self) -> None:
        require_positive(self.nprow, "nprow")
        require_positive(self.npcol, "npcol")

    @property
    def size(self) -> int:
        return self.nprow * self.npcol

    def coords(self, rank: int) -> tuple[int, int]:
        """(grid row, grid column) of *rank*."""
        if not 0 <= rank < self.nprow * self.npcol:
            raise ValueError(f"rank {rank} out of range")
        return rank // self.npcol, rank % self.npcol

    def rank_of(self, p: int, q: int) -> int:
        if not (0 <= p < self.nprow and 0 <= q < self.npcol):
            raise ValueError(f"coords ({p},{q}) out of range")
        return p * self.npcol + q

    def row_members(self, p: int) -> list[int]:
        """All ranks in grid row *p* (ordered by grid column)."""
        return [self.rank_of(p, q) for q in range(self.npcol)]

    def col_members(self, q: int) -> list[int]:
        """All ranks in grid column *q* (ordered by grid row)."""
        return [self.rank_of(p, q) for p in range(self.nprow)]

    def row_comm(self, comm):
        """Row sub-communicator for *comm*'s rank (local ranks = grid columns).

        Topology is known to every rank, so this needs no collective
        exchange — unlike ``comm.split`` it can be built mid-computation at
        zero simulated cost.  Tag-namespaced per row, so the Q row
        communicators never steal each other's messages.
        """
        from repro.mpi.group import Group  # local: hpl.grid must stay mpi-free at import

        p, _ = self.coords(comm.rank)
        return Group(comm, self.row_members(p), tag_space=("row", p))

    def col_comm(self, comm):
        """Column sub-communicator for *comm*'s rank (local ranks = grid rows)."""
        from repro.mpi.group import Group

        _, q = self.coords(comm.rank)
        return Group(comm, self.col_members(q), tag_space=("col", q))


class BlockCyclic:
    """1-D block-cyclic map of *n* items in blocks of *nb* over *nprocs*."""

    def __init__(self, n: int, nb: int, nprocs: int) -> None:
        require(n >= 0, "n must be >= 0")
        require_positive(nb, "nb")
        require_positive(nprocs, "nprocs")
        self.n = n
        self.nb = nb
        self.nprocs = nprocs

    def owner(self, g: int) -> int:
        """The process owning global index *g*."""
        if not 0 <= g < self.n:
            raise ValueError(f"index {g} out of range")
        return (g // self.nb) % self.nprocs

    def to_local(self, g: int) -> tuple[int, int]:
        """(owner, local index) of global index *g*."""
        block, offset = divmod(g, self.nb)
        return block % self.nprocs, (block // self.nprocs) * self.nb + offset

    def local_index(self, g: int) -> int:
        """Local index of *g* on its owner."""
        return self.to_local(g)[1]

    def to_global(self, proc: int, l: int) -> int:
        """Global index of local index *l* on process *proc*."""
        require(0 <= proc < self.nprocs, f"proc {proc} out of range")
        require(l >= 0, "local index must be >= 0")
        block, offset = divmod(l, self.nb)
        return (block * self.nprocs + proc) * self.nb + offset

    def local_count(self, proc: int) -> int:
        """Number of items process *proc* owns (the numroc formula)."""
        require(0 <= proc < self.nprocs, f"proc {proc} out of range")
        nblocks = -(-self.n // self.nb) if self.n else 0
        if nblocks == 0:
            return 0
        owned_blocks = (nblocks - proc + self.nprocs - 1) // self.nprocs
        count = owned_blocks * self.nb
        if (nblocks - 1) % self.nprocs == proc:
            count -= nblocks * self.nb - self.n  # shave the ragged last block
        return count

    def globals_of(self, proc: int) -> np.ndarray:
        """All global indices owned by *proc*, ascending (= local order)."""
        out = []
        block = proc
        nblocks = -(-self.n // self.nb) if self.n else 0
        while block < nblocks:
            start = block * self.nb
            out.append(np.arange(start, min(start + self.nb, self.n)))
            block += self.nprocs
        return np.concatenate(out) if out else np.empty(0, dtype=int)

    def first_local_at_or_after(self, proc: int, g: int) -> int:
        """Smallest local index on *proc* whose global index is >= *g*.

        Because local order preserves global order, the local indices at or
        after this value form exactly the trailing-submatrix suffix.
        """
        if not 0 <= g <= self.n:
            raise ValueError(f"index {g} out of range")
        if g >= self.n:
            return self.local_count(proc)
        block, offset = divmod(g, self.nb)
        cycle, pos = divmod(block, self.nprocs)
        if pos == proc:
            return cycle * self.nb + offset
        if pos < proc:
            return cycle * self.nb
        return (cycle + 1) * self.nb

    def local_count_at_or_after(self, proc: int, g: int) -> int:
        """How many of *proc*'s items have global index >= *g*."""
        return self.local_count(proc) - self.first_local_at_or_after(proc, g)
