"""Bit-exact pins of the analytic stepper's results.

The golden store compares within 1e-6 relative, which cannot see a
one-ulp drift in the per-step update model.  This suite pins
``repr(result.elapsed)`` and the summed per-step ``mean_gsplit`` of every
case below exactly.  The matrix crosses every mapping with the config
variants that switch model branches (pipelining, the endgame fallback,
level-2/look-ahead/broadcast, NB + pageable memory), three grid shapes and
two sizes, plus the batch stepper with mixed NBs and faulted runs that
leave some ranks dead and inflate PCIe transfers.  Between them these hit
both the all-live and the partially-dead side of every select in the
model, except the non-finite guard of the split, which no finite input
reaches.

The pins live in ``exact_bits.json`` beside this file.  They record
behaviour, not a tolerance: a change that moves any of them changes
results.  Re-record (``PYTHONPATH=src python tests/hpl/test_exact_bits.py``)
only for a deliberate behaviour change, and say so in the changelog.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

from repro.faults.spec import FaultSpec, GpuDropout, GpuThrottle, PcieFaultSpec, Straggler
from repro.hpl.analytic import MAPPINGS, AnalyticConfig, AnalyticHpl
from repro.hpl.batch import run_batch
from repro.hpl.grid import ProcessGrid
from repro.machine.cluster import Cluster
from repro.machine.presets import tianhe1_cluster

PINS_PATH = Path(__file__).with_name("exact_bits.json")

VARIANTS = {
    "default": {},
    "sync": {"pipelined": False},
    "endgame": {"endgame_cpu_fallback": True},
    "flat": {"level2": False, "lookahead": False, "bcast_algo": "long"},
    "nb192_pageable": {"nb": 192, "pinned": False},
}
GRIDS = ((1, 1), (2, 4), (8, 8))
SIZES = (3000, 20000)

BATCH_NS = (3000, 20000, 11500)
BATCH_NBS = (192, 1216, 768)
BATCH_GRIDS = ((1, 1), (2, 4))

FAULTS = {
    "mixed": FaultSpec(
        throttles=(GpuThrottle(at=2.0, clock_factor=0.7, element=1, recovery_s=3.0),),
        dropouts=(GpuDropout(at=5.0, element=3),),
        stragglers=(Straggler(at=1.0, element=6, factor=0.5, until=10.0, side="both"),),
    ),
    "pcie": FaultSpec(pcie=PcieFaultSpec(fail_probability=0.2, at=3.0, until=9.0)),
}
FAULT_GRID = (2, 4)
FAULT_N = 20000


@lru_cache(maxsize=None)
def _cluster() -> Cluster:
    return Cluster(tianhe1_cluster(cabinets=1), seed=2009)


def _stepper(mapping, grid, faults=None, **overrides) -> AnalyticHpl:
    cluster = _cluster()
    return AnalyticHpl(
        cluster.rate_table(),
        ProcessGrid(*grid),
        cluster.spec.interconnect,
        variability=cluster.spec.variability,
        config=replace(AnalyticConfig(mapping=mapping), **overrides),
        faults=faults,
    )


def _pin(result) -> dict:
    return {
        "elapsed": repr(result.elapsed),
        "gsplit_sum": repr(sum(s.mean_gsplit for s in result.steps)),
    }


def _scalar_cases():
    for mapping in MAPPINGS:
        for variant in VARIANTS:
            for grid in GRIDS:
                for n in SIZES:
                    yield f"{mapping}/{variant}/{grid[0]}x{grid[1]}/n{n}", (
                        mapping, variant, grid, n,
                    )


def _run_scalar(mapping, variant, grid, n) -> dict:
    return _pin(_stepper(mapping, grid, **VARIANTS[variant]).run(n))


def _run_batch(mapping, grid) -> list:
    results = run_batch(_stepper(mapping, grid), BATCH_NS, BATCH_NBS)
    return [repr(r.elapsed) for r in results]


def _run_faulted(mapping, fault) -> dict:
    result = _stepper(mapping, FAULT_GRID, faults=FAULTS[fault]).run(FAULT_N)
    return _pin(result)


SCALAR_CASES = dict(_scalar_cases())
BATCH_CASES = {
    f"batch/{mapping}/{g[0]}x{g[1]}": (mapping, g) for mapping in MAPPINGS for g in BATCH_GRIDS
}
FAULT_CASES = {f"fault/{mapping}/{f}": (mapping, f) for mapping in MAPPINGS for f in FAULTS}


def record() -> dict:
    """Every case's pin, keyed by case id."""
    pins = {key: _run_scalar(*case) for key, case in SCALAR_CASES.items()}
    pins.update({key: _run_batch(*case) for key, case in BATCH_CASES.items()})
    pins.update({key: _run_faulted(*case) for key, case in FAULT_CASES.items()})
    return pins


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_case(pins):
    assert set(pins) == set(SCALAR_CASES) | set(BATCH_CASES) | set(FAULT_CASES)


@pytest.mark.parametrize("key", sorted(SCALAR_CASES))
def test_scalar_bits(pins, key):
    assert _run_scalar(*SCALAR_CASES[key]) == pins[key]


@pytest.mark.parametrize("key", sorted(BATCH_CASES))
def test_batch_bits(pins, key):
    assert _run_batch(*BATCH_CASES[key]) == pins[key]


@pytest.mark.parametrize("key", sorted(FAULT_CASES))
def test_faulted_bits(pins, key):
    assert _run_faulted(*FAULT_CASES[key]) == pins[key]


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")
