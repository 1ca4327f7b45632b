"""Workload ``des-grid``: the DES crossval grid cells on real process grids.

One pass runs :func:`repro.verify.gridcases.run_grid_case` on ``grid8x8``,
``grid8x8/1rm`` and ``grid16x16``: each factors a random matrix with the
numeric distributed LU over simulated MPI, once over the QDR interconnect
and once with no network, and checks bit-identity, the HPL residual and
the elapsed band.  sim, mpi and ``hpl.dist`` do nearly all the work; the
analytic stepper does none.  The two 8x8 cells differ only in the panel
broadcast, so the MPI message mix varies at a fixed rank count.

The seed picks the matrix seed from :data:`MATRIX_SEEDS`; the reference
file holds the exact simulated elapsed time and the event, message and
byte counts of every cell for every one of them.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Any

from harness import Outcome, median, peak_rss_mb
from tracing import PackageProfile, Tracer, layer_metrics, trace_details

CASE_NAMES = ("grid8x8", "grid8x8/1rm", "grid16x16")
MATRIX_SEEDS = (20100917, 11, 12345, 4242, 777, 31337, 2009, 65537)


def cases_for(seed: int) -> list[Any]:
    from repro.verify.gridcases import GRID_MATRIX, GRID_MATRIX_SLOW

    by_name = {case.name: case for case in GRID_MATRIX + GRID_MATRIX_SLOW}
    matrix_seed = MATRIX_SEEDS[seed % len(MATRIX_SEEDS)]
    return [replace(by_name[name], seed=matrix_seed) for name in CASE_NAMES]


def prepare(seed: int) -> list[Any]:
    """Import the DES stack and build the cells' inputs (the set-up being timed)."""
    import numpy as np

    import repro.verify.gridcases  # noqa: F401

    cases = cases_for(seed)
    for case in cases:
        np.random.default_rng(case.seed).standard_normal((case.n, case.n))
    return cases


def cell_facts(outcome: Any) -> dict[str, Any]:
    """What the reference pins for one cell (exact)."""
    return {
        "ok": outcome.ok,
        "elapsed": repr(outcome.timed.elapsed),
        "events": outcome.sim_stats.events_processed,
        "messages": outcome.timed.messages,
        "bytes": repr(outcome.timed.bytes_sent),
    }


class _Recorder:
    """Always-on span around DistributedLU.factor: host time and DES counters."""

    def __init__(self, tracer: Tracer) -> None:
        from repro.hpl.dist import DistributedLU

        self.factor_s = 0.0
        self.events = 0
        self.max_queue_depth = 0
        self.calendar_resizes = 0
        self.messages = 0
        self.bytes = 0.0
        tracer.wrap(DistributedLU, "factor", "hpl.dist.factor", on_exit=self._factor)

    def _factor(self, seconds: float, args: tuple, kwargs: dict, result: Any) -> None:
        sim = args[0].sim
        self.factor_s += seconds
        self.events += sim.events_processed
        self.max_queue_depth = max(self.max_queue_depth, sim.max_queue_depth)
        self.calendar_resizes += sim.calendar_resizes
        self.messages += result.messages
        self.bytes += result.bytes_sent


def _one_pass(cases: list, reference: dict, outcome: Outcome, cell16: list[float]) -> float:
    from repro.verify.gridcases import run_grid_case

    started = time.perf_counter()
    for case in cases:
        cell_started = time.perf_counter()
        try:
            result = run_grid_case(case)
        except Exception as error:  # noqa: BLE001 - counted as a failed cell
            outcome.check(False, f"{case.name}: {type(error).__name__}: {error}")
            continue
        if case.name == "grid16x16":
            cell16.append(time.perf_counter() - cell_started)
        want = reference.get(f"{case.name}@{case.seed}")
        outcome.check(want is not None and cell_facts(result) == want,
                      f"{case.name}@{case.seed}: {cell_facts(result)} != {want}")
    return time.perf_counter() - started


def run(seed: int, seconds: float, trace: bool, workdir: Path, reference: dict) -> Outcome:
    outcome = Outcome()
    cases = prepare(seed)
    reference = reference["des-grid"]
    untraced_pass = _one_pass(cases, reference, outcome, []) if trace else 0.0
    tracer = Tracer()
    recorder = _Recorder(tracer)
    profile = PackageProfile()
    passes: list[float] = []
    cell16: list[float] = []
    try:
        began = time.perf_counter()
        while not passes or time.perf_counter() - began + passes[-1] <= seconds:
            if trace:
                with profile:
                    passes.append(_one_pass(cases, reference, outcome, cell16))
            else:
                passes.append(_one_pass(cases, reference, outcome, cell16))
    finally:
        tracer.restore()

    outcome.details.update({
        "passes": len(passes), "cells_per_pass": len(cases),
        "matrix_seed": cases[0].seed, "grid16_samples": len(cell16),
        "rule": "wait_s = median pass wall; cell_s = median 16x16 cell wall; "
                "rate_per_s = all events / all host seconds in DistributedLU.factor",
    })
    outcome.metrics.update({
        "wait_s": median(passes),
        "cell_s": median(cell16),
        "rate_per_s": recorder.events / recorder.factor_s if recorder.factor_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    })
    if trace:  # totals over the traced region, like trace.wall_s
        layers = layer_metrics(profile)
        outcome.details.update(trace_details(profile))
        outcome.metrics.update(layers)
        outcome.metrics.update({
            "sim.events": recorder.events,
            "sim.events_per_s": recorder.events / layers["sim.self_s"] if layers["sim.self_s"] else 0.0,
            "sim.max_queue_depth": recorder.max_queue_depth,
            "sim.calendar_resizes": recorder.calendar_resizes,
            "mpi.messages": recorder.messages,
            "mpi.bytes": recorder.bytes,
            "mpi.us_per_message": 1e6 * layers["mpi.self_s"] / recorder.messages if recorder.messages else 0.0,
            "obs.tracing_overhead": median(passes) / untraced_pass - 1.0,
        })
    return outcome


def setup_probe(seed: int) -> None:
    prepare(seed)
