"""The argument checks on the DES grid hot paths, message text included.

These checks are spelled inline (the message is formatted only when one
fires) rather than through ``require``; this pins that each still fires on
the same condition with the same ``ValueError`` text.
"""

import pytest

from repro.hpl.grid import BlockCyclic, ProcessGrid
from repro.machine.interconnect import Interconnect
from repro.machine.presets import QDR_INFINIBAND
from repro.mpi.comm import SimMPI
from repro.mpi.group import Group
from repro.sim import BandwidthChannel, Simulator


def _world(n_ranks=4):
    sim = Simulator()
    return SimMPI(sim, n_ranks, Interconnect(sim, QDR_INFINIBAND, n_ranks))


CASES = {
    "owner-high": (lambda: BlockCyclic(16, 4, 2).owner(16), "index 16 out of range"),
    "owner-low": (lambda: BlockCyclic(16, 4, 2).owner(-1), "index -1 out of range"),
    "first-local": (
        lambda: BlockCyclic(16, 4, 2).first_local_at_or_after(0, 17), "index 17 out of range",
    ),
    "coords": (lambda: ProcessGrid(2, 3).coords(6), "rank 6 out of range"),
    "rank-of": (lambda: ProcessGrid(2, 3).rank_of(2, 0), "coords (2,0) out of range"),
    "isend": (lambda: _world().comm(0).isend(1.0, 4), "dest 4 out of range"),
    "group-send": (
        lambda: Group(_world().comm(0), [0, 7])._lisend(1.0, 1, "t"), "dest 7 out of range",
    ),
    "port": (
        lambda: Interconnect(Simulator(), QDR_INFINIBAND, 2).port(2), "rank 2 out of range",
    ),
    "network-send-dst": (
        lambda: Interconnect(Simulator(), QDR_INFINIBAND, 2).send(0, 2, 8.0),
        "rank 2 out of range",
    ),
    "network-send-src": (
        lambda: Interconnect(Simulator(), QDR_INFINIBAND, 2).send(5, 0, 8.0),
        "rank 5 out of range",
    ),
    "transfer": (
        lambda: BandwidthChannel(Simulator(), 1e9).transfer(-1.0),
        "nbytes must be >= 0, got -1.0",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_fires_with_its_message(name):
    call, message = CASES[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
