"""Property tests of the per-step swap plan of the distributed LU.

:func:`repro.hpl.dist.swap_plan` replaces a loop every rank used to run
over every pivot of a step, asking ``BlockCyclic.owner`` who holds each of
the two rows.  The plan must list, for each grid row, exactly the swaps
that loop acted on, in the same order and with the same local indices and
peers; and applying it across a process grid must equal the sequential
interchange (LAPACK's DLASWP) on the global matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.dlaswp import dlaswp
from repro.hpl.dist import DistributedLU, collect_matrix, distribute_matrix, swap_plan
from repro.hpl.grid import BlockCyclic, ProcessGrid
from repro.mpi.comm import SimMPI, run_ranks
from repro.sim import Simulator


@st.composite
def steps(draw):
    """(n, nb, P, j, piv): one step's pivots on an n-row block-cyclic layout."""
    nprocs = draw(st.integers(1, 5))
    nb = draw(st.integers(1, 6))
    n = draw(st.integers(1, 48))
    jb = draw(st.integers(0, (n - 1) // nb))
    j = jb * nb
    jbw = min(nb, n - j)
    piv = draw(st.lists(st.integers(0, n - 1), min_size=jbw, max_size=jbw))
    return n, nb, nprocs, j, np.array(piv, dtype=np.int64)


def brute_force_plan(piv, j, rows):
    """The per-rank loop the plan replaces, run once per grid row."""
    plan = []
    for p in range(rows.nprocs):
        mine = []
        for i, r2 in enumerate(piv):
            r1 = j + i
            if r1 == r2:
                continue
            o1, o2 = rows.owner(r1), rows.owner(r2)
            if p == o1 == o2:
                mine.append((i, rows.local_index(r1), rows.local_index(r2), -1))
            elif p == o1:
                mine.append((i, rows.local_index(r1), -1, o2))
            elif p == o2:
                mine.append((i, rows.local_index(r2), -1, o1))
        plan.append(mine)
    return plan


@given(step=steps())
@settings(max_examples=200, deadline=None)
def test_plan_matches_the_per_rank_loop(step):
    n, nb, nprocs, j, piv = step
    rows = BlockCyclic(n, nb, nprocs)
    assert swap_plan(piv, j, rows) == brute_force_plan(piv, j, rows)


@given(step=steps(), npcol=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_distributed_swaps_equal_global_swaps(step, npcol, seed):
    n, nb, nprow, j, piv = step
    n_cols = 2 * nb + 3
    grid = ProcessGrid(nprow, npcol)
    a = np.random.default_rng(seed).standard_normal((n, n_cols))
    locals_ = distribute_matrix(grid, a, nb)
    plan = swap_plan(piv, j, BlockCyclic(n, nb, nprow))
    sim = Simulator()
    world = SimMPI(sim, grid.size, None)
    lu = DistributedLU(sim, grid, nb, world)

    def rank_main(comm):
        p, q = grid.coords(comm.rank)
        if plan[p] and locals_[comm.rank].shape[1]:
            yield from lu._apply_swaps(locals_[comm.rank], plan[p], q, slice(None), comm, 0)
        return None
        yield  # pragma: no cover - makes this a generator function

    run_ranks(sim, world, rank_main)
    expected = dlaswp(a.copy(), piv, offset=j)
    assert np.array_equal(collect_matrix(grid, locals_, n, n_cols, nb), expected)


@pytest.mark.parametrize("piv, j, bad", [([16], 0, 16), ([-1], 0, -1), ([14, 15, 2], 14, 16)])
def test_out_of_range_row_raises(piv, j, bad):
    with pytest.raises(ValueError, match=rf"^index {bad} out of range$"):
        swap_plan(np.array(piv), j, BlockCyclic(16, 4, 2))
