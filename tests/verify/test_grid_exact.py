"""Exact schedule pins of the distributed LU on real process grids.

A host-time optimisation of the DES, MPI or ``hpl.dist`` layers must leave
the simulated run untouched: the same events in the same order, the same
messages and bytes, the same clock.  The grid crossval cells only compare
the networked run against a zero-time reference, which cannot see a
schedule change that keeps the numerics.  This suite pins, for each cell
below (grid2x2/4x4/8x8 x every HPL BCAST algorithm, FlopsEngine ranks over
the QDR interconnect):

* ``events_processed``, ``events_scheduled`` and ``max_queue_depth``;
* ``messages``, ``repr(bytes_sent)`` and ``repr(elapsed)``;
* SHA-256 of the pivot vector and of every factored local block;
* for the 4x4 cells, SHA-256 of the full ``record_log=True`` message trace
  (every injection and delivery with its time, endpoints, tag and size,
  compared by value).

The pins live in ``grid_exact.json`` beside this file.  Re-record
(``PYTHONPATH=src python tests/verify/test_grid_exact.py``) only for a
deliberate change to the simulated schedule, and say so in the changelog.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.hpl.dist import DistributedLU, FlopsEngine
from repro.hpl.grid import ProcessGrid
from repro.machine.interconnect import Interconnect
from repro.machine.presets import QDR_INFINIBAND
from repro.mpi import BCAST_ALGORITHMS, SimMPI
from repro.sim import Simulator
from repro.verify.gridcases import GRID_MATRIX

PINS_PATH = Path(__file__).with_name("grid_exact.json")

GRIDS = {case.name: case for case in GRID_MATRIX if case.bcast_algo == "binomial"}
TRACED = "grid4x4"
CASES = {f"{name}/{algo}": (name, algo) for name in GRIDS for algo in BCAST_ALGORITHMS}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(repr((array.shape, array.dtype.str)).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _log_line(entry: tuple) -> str:
    """One trace entry by value (a rank id may be a numpy or a Python int)."""
    kind, when, src, dst, tag, nbytes = entry
    return repr((kind, float(when), int(src), int(dst), tag, float(nbytes)))


def _run(name: str, algo: str) -> dict:
    case = GRIDS[name]
    sim = Simulator()
    grid = ProcessGrid(case.nprow, case.npcol)
    world = SimMPI(
        sim, grid.size, Interconnect(sim, QDR_INFINIBAND, grid.size),
        record_log=name == TRACED,
    )
    engines = [FlopsEngine() for _ in range(grid.size)]
    lu = DistributedLU(sim, grid, case.nb, world, engines=engines, bcast_algorithm=algo)
    a = np.random.default_rng(case.seed).standard_normal((case.n, case.n))
    result = lu.factor(a)
    stats = sim.stats()
    pin = {
        "events_processed": stats.events_processed,
        "events_scheduled": stats.events_scheduled,
        "max_queue_depth": stats.max_queue_depth,
        "messages": result.messages,
        "bytes_sent": repr(result.bytes_sent),
        "elapsed": repr(result.elapsed),
        "piv_sha256": _digest([result.piv]),
        "locals_sha256": _digest(result.locals_),
    }
    if world.log is not None:
        pin["log_sha256"] = hashlib.sha256(
            "\n".join(map(_log_line, world.log)).encode()
        ).hexdigest()
    return pin


def record() -> dict:
    """Every cell's pin, keyed by ``grid/algorithm``."""
    return {key: _run(*case) for key, case in CASES.items()}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_case(pins):
    assert set(pins) == set(CASES)
    assert all("log_sha256" in pins[key] for key in CASES if key.startswith(TRACED + "/"))


@pytest.mark.parametrize("key", sorted(CASES))
def test_grid_schedule_exact(pins, key):
    assert _run(*CASES[key]) == pins[key]


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")
