"""Numeric distributed right-looking LU with partial pivoting.

One DES process per rank executes, for every NB-wide column block (one HPL
iteration):

1. **Panel gather + factor** — the grid column owning the panel gathers its
   distributed rows to the diagonal-block owner, which factors the panel
   with :func:`~repro.blas.dgetrf.dgetf2` (global pivot indices).
2. **Panel scatter + row broadcast** — the diagonal owner scatters each grid
   row's share of the factored panel back down its process column
   (``scatterv``), then every owning-column rank broadcasts its share (plus
   the pivots) along its process *row* with the configured HPL ``BCAST``
   algorithm (binomial / 1ring / 1rm / long — see :mod:`repro.mpi.bcast`).
   This is HPL's row-scoped panel broadcast: no rank ever receives panel
   rows it does not need for its own L21/write-back, which is exactly the
   per-rank volume the analytic model charges.
3. **Pivot application** — each grid column applies the row interchanges to
   its non-panel columns; rows living on different grid rows are exchanged
   point-to-point, in pivot order.  The step's :func:`swap_plan` (built once
   per distinct pivot vector, shared by all ranks) lists each grid row's
   swaps, so a rank visits only the swaps that touch its own rows.
4. **U block row** — the grid row owning the diagonal block solves
   ``U12 = L11^-1 A12`` on its local trailing columns and broadcasts it down
   each grid column (column-scoped sub-communicator).
5. **Trailing update** — every rank performs its local share of
   ``A22 -= L21 @ U12`` through its :class:`RankEngine` (the hybrid DGEMM in
   a full simulation; instantaneous math in pure-numeric tests).

The result passes the official HPL residual test (see tests/hpl/).  A
drained calendar with ranks stuck in a collective surfaces as
:class:`~repro.mpi.comm.CollectiveDeadlockError` naming ranks and tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Sequence

import numpy as np

from repro.blas.dgetrf import dgetf2
from repro.blas.dtrsm import dtrsm
from repro.hpl.grid import BlockCyclic, ProcessGrid
from repro.mpi.comm import SimComm, SimMPI, run_ranks
from repro.sim import Event, Simulator
from repro.util.validation import require


def panel_factor_flops(m: int, nb: int) -> float:
    """Flop count of dgetf2 on an m x nb panel (m >= nb)."""
    if m <= 0 or nb <= 0:
        return 0.0
    return float(m * nb * nb - nb**3 / 3.0)


def dtrsm_flops(nb: int, n_cols: int) -> float:
    """Flop count of the U12 triangular solve."""
    return float(nb * nb * n_cols)


class InstantEngine:
    """Numeric-only engine: real math, zero simulated time."""

    def dgemm_update(self, l21: np.ndarray, u12: np.ndarray, c: np.ndarray):
        """c -= l21 @ u12 (generator for interface parity)."""
        c -= l21 @ u12
        return
        yield  # pragma: no cover - makes this a generator function

    def charge_cpu(self, flops: float):
        """No time charged."""
        return
        yield  # pragma: no cover


class FlopsEngine:
    """Real math, time charged from flop counts at fixed device rates.

    The scalable middle ground between :class:`InstantEngine` (no timing at
    all) and :class:`ElementEngine` (full mapper/pipeline machinery per
    rank): the trailing update and the CPU-side phases take
    ``flops / rate`` simulated seconds, nothing else.  One instance per rank
    is cheap enough to run 8x8 and 16x16 process grids through the DES/
    analytic crossval matrix, while keeping the timing non-trivial (compute
    overlaps communication, the critical path is real).
    """

    def __init__(self, gemm_rate: float = 2.5e11, cpu_rate: float = 4.0e10) -> None:
        require(gemm_rate > 0 and cpu_rate > 0, "engine rates must be > 0")
        self.sim: Optional[Simulator] = None  # bound by DistributedLU.factor
        self.gemm_rate = gemm_rate
        self.cpu_rate = cpu_rate
        self.update_time = 0.0
        self.cpu_phase_time = 0.0

    def dgemm_update(self, l21: np.ndarray, u12: np.ndarray, c: np.ndarray):
        m, k = l21.shape
        n = u12.shape[1]
        c -= l21 @ u12
        duration = 2.0 * m * n * k / self.gemm_rate
        self.update_time += duration
        assert self.sim is not None, "FlopsEngine used outside DistributedLU"
        yield self.sim.timeout(duration)

    def charge_cpu(self, flops: float):
        if flops <= 0:
            return
        duration = flops / self.cpu_rate
        self.cpu_phase_time += duration
        assert self.sim is not None, "FlopsEngine used outside DistributedLU"
        yield self.sim.timeout(duration)


class ElementEngine:
    """Engine backed by one compute element: hybrid DGEMM + CPU-side phases.

    The trailing update runs through :class:`~repro.core.hybrid_dgemm.HybridDgemm`
    (so its time reflects the mapper/pipeline configuration *and* the real
    math is performed); panel factorization and DTRSM are charged to the
    compute cores at a reduced efficiency (they are latency/memory bound).
    """

    def __init__(self, hybrid, panel_efficiency: float = 0.6) -> None:
        self.hybrid = hybrid
        self.element = hybrid.element
        self.panel_efficiency = panel_efficiency
        self.update_time = 0.0
        self.cpu_phase_time = 0.0

    def dgemm_update(self, l21: np.ndarray, u12: np.ndarray, c: np.ndarray):
        m, k = l21.shape
        n = u12.shape[1]
        start = self.element.sim.now
        result = yield from self.hybrid.run(
            m, n, k, a=np.ascontiguousarray(l21), b=u12, c=c, alpha=-1.0, beta=1.0
        )
        self.update_time += self.element.sim.now - start
        return result

    def charge_cpu(self, flops: float):
        if flops <= 0:
            return
        rate = self.element.cpu_compute_rate() * self.panel_efficiency
        duration = flops / rate
        self.cpu_phase_time += duration
        yield self.element.sim.timeout(duration)


@dataclass
class RankStats:
    """Per-rank accounting of one factorization."""

    rank: int
    elapsed: float
    update_time: float = 0.0
    cpu_phase_time: float = 0.0


@dataclass
class FactorResult:
    """Outcome of a distributed factorization."""

    piv: np.ndarray  # global pivot rows, 0-based
    locals_: list[np.ndarray]  # per-rank local arrays (factored in place)
    stats: list[RankStats]
    elapsed: float
    bytes_sent: float
    messages: int


#: One plan entry: ``(i, mine, other, peer)`` — see :func:`swap_plan`.
Swap = tuple[int, int, int, int]


def swap_plan(piv: np.ndarray, j: int, rows: BlockCyclic) -> list[list[Swap]]:
    """One step's row interchanges, split by grid row, in pivot order.

    Swap ``i`` exchanges global rows ``j + i`` and ``piv[i]`` (skipped when
    they are equal).  ``plan[p]`` lists, in pivot order, every swap in which
    grid row ``p`` owns one of the two rows, as ``(i, mine, other, peer)``:
    ``mine`` is the local index of ``p``'s row; ``peer == -1`` means ``p``
    owns both rows and ``other`` is the second local index; otherwise
    ``other`` is ``-1`` and the second row lives on grid row ``peer``, so
    the two rows are exchanged point to point.
    """
    plan: list[list[Swap]] = [[] for _ in range(rows.nprocs)]
    for i, r2 in enumerate(piv.tolist()):
        r1 = j + i
        if r1 == r2:
            continue
        for g in (r1, r2):  # the range check BlockCyclic.owner makes
            if not 0 <= g < rows.n:
                raise ValueError(f"index {g} out of range")
        o1, l1 = rows.to_local(r1)
        o2, l2 = rows.to_local(r2)
        if o1 == o2:
            plan[o1].append((i, l1, l2, -1))
        else:
            plan[o1].append((i, l1, -1, o2))
            plan[o2].append((i, l2, -1, o1))
    return plan


def distribute_matrix(grid: ProcessGrid, a: np.ndarray, nb: int) -> list[np.ndarray]:
    """Scatter a global matrix into per-rank block-cyclic local arrays."""
    n_rows, n_cols = a.shape
    rows = BlockCyclic(n_rows, nb, grid.nprow)
    cols = BlockCyclic(n_cols, nb, grid.npcol)
    locals_: list[np.ndarray] = []
    for rank in range(grid.size):
        p, q = grid.coords(rank)
        gr = rows.globals_of(p)
        gc = cols.globals_of(q)
        locals_.append(np.ascontiguousarray(a[np.ix_(gr, gc)]))
    return locals_


def collect_matrix(
    grid: ProcessGrid, locals_: Sequence[np.ndarray], n_rows: int, n_cols: int, nb: int
) -> np.ndarray:
    """Inverse of :func:`distribute_matrix`."""
    rows = BlockCyclic(n_rows, nb, grid.nprow)
    cols = BlockCyclic(n_cols, nb, grid.npcol)
    out = np.empty((n_rows, n_cols))
    for rank in range(grid.size):
        p, q = grid.coords(rank)
        out[np.ix_(rows.globals_of(p), cols.globals_of(q))] = locals_[rank]
    return out


class DistributedLU:
    """Runs the distributed factorization on a simulator."""

    def __init__(
        self,
        sim: Simulator,
        grid: ProcessGrid,
        nb: int,
        world: SimMPI,
        engines: Optional[Sequence[Any]] = None,
        bcast_algorithm: str = "binomial",
    ) -> None:
        require(world.n_ranks == grid.size, "world size must match the grid")
        self.sim = sim
        self.grid = grid
        self.nb = nb
        self.world = world
        self.engines = list(engines) if engines is not None else [InstantEngine()] * grid.size
        require(len(self.engines) == grid.size, "one engine per rank required")
        for engine in self.engines:
            if getattr(engine, "sim", False) is None:  # an unbound FlopsEngine
                engine.sim = sim
        self.bcast_algorithm = bcast_algorithm

    def factor(self, a: np.ndarray) -> FactorResult:
        """Factor the global matrix *a* (not modified); returns the result."""
        require(a.ndim == 2 and a.shape[0] == a.shape[1], "A must be square")
        n = a.shape[0]
        locals_ = distribute_matrix(self.grid, a, self.nb)
        piv_store: dict[int, list[np.ndarray]] = {}
        swap_plans: dict[tuple[int, bytes], list[list[Swap]]] = {}
        rows = BlockCyclic(n, self.nb, self.grid.nprow)
        row_globals = [rows.globals_of(p) for p in range(self.grid.nprow)]
        start = self.sim.now
        values = run_ranks(
            self.sim,
            self.world,
            lambda comm: self._rank_lu(
                comm.rank, n, locals_[comm.rank], comm, piv_store, swap_plans, row_globals
            ),
            name="lu.rank",
        )
        elapsed = self.sim.now - start
        piv = np.concatenate(piv_store[0]) if piv_store.get(0) else np.empty(0, dtype=np.int64)
        stats = []
        for rank, value in enumerate(values):
            engine = self.engines[rank]
            stats.append(
                RankStats(
                    rank=rank,
                    elapsed=float(value),
                    update_time=getattr(engine, "update_time", 0.0),
                    cpu_phase_time=getattr(engine, "cpu_phase_time", 0.0),
                )
            )
        return FactorResult(
            piv=piv,
            locals_=locals_,
            stats=stats,
            elapsed=elapsed,
            bytes_sent=self.world.bytes_sent,
            messages=self.world.messages_sent,
        )

    # -- the per-rank algorithm ---------------------------------------------------
    def _rank_lu(
        self,
        rank: int,
        n: int,
        local: np.ndarray,
        comm: SimComm,
        piv_store: dict[int, list[np.ndarray]],
        swap_plans: dict[tuple[int, bytes], list[list[Swap]]],
        row_globals: list[np.ndarray],
    ) -> Generator[Event, Any, float]:
        sim = self.sim
        t0 = sim.now
        grid, nb = self.grid, self.nb
        p, q = grid.coords(rank)
        rows = BlockCyclic(n, nb, grid.nprow)
        cols = BlockCyclic(n, nb, grid.npcol)
        col_group = grid.col_comm(comm)
        row_group = grid.row_comm(comm)
        engine = self.engines[rank]
        my_row_globals = row_globals[p]
        my_pivs: list[np.ndarray] = []
        piv_store[rank] = my_pivs

        n_blocks = -(-n // nb)
        # Step k spans global indices [k*nb, (k+1)*nb) clipped to n.
        # row_at[k] / col_at[k] is this rank's first local row / column at or
        # after k*nb; on the grid row / column that owns index k*nb it is
        # that index's local position.
        bounds = [min(k * nb, n) for k in range(n_blocks + 1)]
        row_at = [rows.first_local_at_or_after(p, g) for g in bounds]
        col_at = [cols.first_local_at_or_after(q, g) for g in bounds]
        n_local_rows, n_local_cols = local.shape
        for jb in range(n_blocks):
            j = jb * nb
            jbw = min(nb, n - j)
            owner_q = jb % grid.npcol
            owner_p = jb % grid.nprow
            lr0, lr1 = row_at[jb], row_at[jb + 1]
            lcp, lc1 = col_at[jb], col_at[jb + 1]

            # 1. Panel gather (within the owning grid column) + factor.
            part = None
            if q == owner_q:
                contribution = (my_row_globals[lr0:], local[lr0:, lcp : lcp + jbw].copy())
                gathered = yield from col_group.gather(
                    contribution, root_local=owner_p, tag=("pg", jb)
                )
                parts = None
                if p == owner_p:
                    panel = np.empty((n - j, jbw))
                    for globals_g, block in gathered:
                        panel[globals_g - j, :] = block
                    yield from engine.charge_cpu(panel_factor_flops(n - j, jbw))
                    piv = dgetf2(panel, offset=j)
                    # Each grid row's share of L: its own globals >= j.
                    parts = []
                    for pp in range(grid.nprow):
                        gsel = row_globals[pp][rows.first_local_at_or_after(pp, j) :]
                        parts.append((np.ascontiguousarray(panel[gsel - j, :]), piv))
                # 2a. Scatter the factored shares back down the owning column.
                part = yield from col_group.scatterv(parts, root_local=owner_p, tag=("ps", jb))

            # 2b. Row-scoped broadcast of this grid row's share + pivots,
            # with the configured HPL BCAST algorithm.
            panel_rows, piv = yield from row_group.bcast(
                part, root_local=owner_q, algorithm=self.bcast_algorithm, tag=("pb", jb)
            )
            my_pivs.append(piv)

            # 3. Apply the interchanges to the non-panel columns, through the
            # step's swap plan (built once by the first rank to get here).
            plan_key = (jb, piv.tobytes())
            plan = swap_plans.get(plan_key)
            if plan is None:
                plan = swap_plans[plan_key] = swap_plan(piv, j, rows)
            swaps = plan[p]
            n_other_cols = n_local_cols - jbw if q == owner_q else n_local_cols
            if swaps and n_other_cols:
                if q == owner_q:
                    other_cols = np.r_[0:lcp, lcp + jbw : n_local_cols]
                else:
                    other_cols = slice(None)  # every local column
                yield from self._apply_swaps(local, swaps, q, other_cols, comm, jb)

            # ...and write the factored share into the owning column's rows.
            if q == owner_q:
                local[lr0:, lcp : lcp + jbw] = panel_rows

            # 4. U12 on the diagonal grid row, broadcast down each grid column.
            # Every rank in grid row owner_p holds L11 (the first jbw rows of
            # its share are globals j .. j+jbw-1, which that row owns).
            u12 = None
            if p == owner_p and lc1 < n_local_cols:
                a12 = local[lr0 : lr0 + jbw, lc1:]
                yield from engine.charge_cpu(dtrsm_flops(jbw, a12.shape[1]))
                dtrsm(panel_rows[:jbw, :jbw], a12, side="left", uplo="lower", unit_diag=True)
                u12 = a12
            if grid.nprow > 1 and lc1 < n_local_cols:
                u12 = yield from col_group.bcast(u12, root_local=owner_p, tag=("ub", jb))

            # 5. Local trailing update through the engine (the hybrid DGEMM).
            if lr1 < n_local_rows and lc1 < n_local_cols and u12 is not None:
                l21 = panel_rows[lr1 - lr0 :, :]
                c = local[lr1:, lc1:]
                yield from engine.dgemm_update(l21, u12, c)
        return sim.now - t0

    def _apply_swaps(
        self,
        local: np.ndarray,
        swaps: list[Swap],
        q: int,
        other_cols: "np.ndarray | slice",
        comm: SimComm,
        jb: int,
    ) -> Generator[Event, Any, None]:
        """Apply this grid row's entries of a swap plan, in pivot order."""
        grid = self.grid
        for i, mine, other, peer in swaps:
            if peer < 0:
                tmp = local[mine, other_cols].copy()
                local[mine, other_cols] = local[other, other_cols]
                local[other, other_cols] = tmp
            else:  # sendrecv with the peer, without its generator frame
                peer_rank, tag = grid.rank_of(peer, q), ("sw", jb, i)
                comm.isend(local[mine, other_cols].copy(), peer_rank, tag)
                local[mine, other_cols] = (yield comm.irecv(peer_rank, tag)).payload
