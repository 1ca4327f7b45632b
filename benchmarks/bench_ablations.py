"""Ablations of the design choices DESIGN.md calls out.

Each test isolates one mechanism and reports what it is worth:

* ``database_g`` bin count J (1 global split vs fine workload bins);
* bounce-corner-turn task ordering (PCIe bytes saved, end-to-end effect);
* the EO stage's block height H (CB0/CB1 footprint vs overlap quality);
* pinned staging vs pageable transfers under the full framework;
* look-ahead (panel hidden behind the update);
* level-2 (per-core) adaptation under the L2-sharing penalty.
"""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveMapper
from repro.core.hybrid_dgemm import HybridDgemm
from repro.core.static_map import StaticMapper
from repro.core.taskqueue import build_task_queue
from repro.machine.node import ComputeElement
from repro.machine.presets import NB_GPU, tianhe1_element
from repro.machine.variability import NO_VARIABILITY
from repro.session import Scenario, run
from repro.sim import Simulator
from repro.util.tables import TextTable
from repro.util.units import GB, dgemm_flops


def fresh_element():
    return ComputeElement(Simulator(), tianhe1_element(), variability=NO_VARIABILITY)


def linpack_sequence_gflops(mapper_bins: int, n: int = 24000, nb: int = NB_GPU) -> float:
    """Total rate of the Linpack DGEMM sequence under a given bin count."""
    element = fresh_element()
    mapper = AdaptiveMapper(
        element.initial_gsplit, 3, max_workload=dgemm_flops(n, n, nb) * 1.05,
        n_bins=mapper_bins,
    )
    engine = HybridDgemm(element, mapper, pipelined=True, jitter=False)
    flops = 0.0
    start = element.sim.now
    trailing = n - nb
    while trailing > 0:
        result = engine.run_to_completion(trailing, trailing, nb)
        flops += result.workload
        trailing -= nb
    return flops / (element.sim.now - start) / 1e9


def mixed_workload_gflops(mapper_bins: int, rounds: int = 4) -> float:
    """Alternating small/large DGEMMs — the case workload bins exist for.

    With J=1 the small and large problems overwrite each other's split every
    call; with per-workload bins each size converges to its own mapping
    ("the next initial mapping for a program, whose problem size is in the
    same range", Section IV.B).
    """
    element = fresh_element()
    sizes = [2048, 12288]
    mapper = AdaptiveMapper(
        element.initial_gsplit, 3,
        max_workload=dgemm_flops(12288, 12288, 12288) * 1.05, n_bins=mapper_bins,
    )
    engine = HybridDgemm(element, mapper, pipelined=True, jitter=False)
    flops = 0.0
    start = element.sim.now
    for _ in range(rounds):
        for n in sizes:
            result = engine.run_to_completion(n, n, n, beta_nonzero=False)
            flops += result.workload
    return flops / (element.sim.now - start) / 1e9


def test_ablation_database_bins(benchmark, save_report):
    """Workload bins matter for mixed sizes; a monotone single run is the
    degenerate case where one tracking split suffices."""

    def sweep():
        mixed = {j: mixed_workload_gflops(j) for j in (1, 8, 64)}
        sequence = {j: linpack_sequence_gflops(j) for j in (1, 64)}
        return mixed, sequence

    mixed, sequence = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["J (bins)", "mixed sizes GFLOPS", "Linpack sequence GFLOPS"],
        title="Ablation: database_g bin count",
    )
    for j in (1, 8, 64):
        table.add_row(j, mixed[j], sequence.get(j, ""))
    save_report("ablation_bins", table.render())
    # Bins pay off when problem sizes interleave (the DB's reason to exist)...
    assert mixed[64] > mixed[1] * 1.02
    assert mixed[8] > mixed[1]
    # ...while a strictly decreasing single run loses nothing much either way.
    assert abs(sequence[64] / sequence[1] - 1.0) < 0.08


def test_ablation_bounce_corner_turn(benchmark, save_report):
    """Serpentine ordering + residency vs re-staging every operand."""
    n, k = 16384, 1216

    def measure():
        smart = build_task_queue(n, n, k, reuse=True, beta_nonzero=False, gpu_memory_bytes=GB)
        naive = build_task_queue(n, n, k, reuse=False, beta_nonzero=False, gpu_memory_bytes=GB)
        times = {}
        for label, reuse in (("bounce-corner-turn", True), ("naive re-staging", False)):
            element = fresh_element()
            engine = HybridDgemm(
                element, StaticMapper(1.0, 3), pipelined=False, reuse=reuse, jitter=False
            )
            times[label] = engine.run_to_completion(n, n, k, beta_nonzero=False).t_total
        return smart, naive, times

    smart, naive, times = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(["ordering", "input GB", "sync time (s)"],
                      title="Ablation: bounce corner turn (16384x16384x1216)")
    table.add_row("bounce-corner-turn", smart.input_bytes / GB, times["bounce-corner-turn"])
    table.add_row("naive re-staging", naive.input_bytes / GB, times["naive re-staging"])
    save_report("ablation_bct", table.render())
    assert smart.input_bytes < naive.input_bytes
    assert smart.bytes_saved_fraction > 0.3  # the 2x2 example skips A and B1
    assert times["bounce-corner-turn"] < times["naive re-staging"]


def test_ablation_eo_block_height(benchmark, save_report):
    """CB0/CB1 block height H: footprint 2*H*N1 vs M1*N1, overlap quality."""
    n, k = 12288, 1216

    def sweep():
        out = {}
        for h in (128, 512, 4096):
            element = fresh_element()
            engine = HybridDgemm(
                element, StaticMapper(1.0, 3), pipelined=True, eo_block_rows=h, jitter=False
            )
            result = engine.run_to_completion(n, n, k, beta_nonzero=False)
            out[h] = (result.t_total, 2 * h * n * 8 / 1e6)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(["H (rows)", "time (s)", "buffer MB (2*H*N)"],
                      title="Ablation: EO double-buffer height")
    for h, (t, mb) in results.items():
        table.add_row(h, t, mb)
    save_report("ablation_eo_height", table.render())
    full_c_mb = n * n * 8 / 1e6
    # The paper's point: H*N*2 buffers replace an M1*N1 resident C.
    assert all(mb < full_c_mb for _, (t, mb) in results.items())
    times = [t for t, _ in results.values()]
    assert max(times) / min(times) < 1.1  # overlap is robust to H


@pytest.mark.parametrize(
    "name,overrides,expect_slower",
    [
        ("pageable transfers", dict(pinned=False), True),
        ("no lookahead", dict(lookahead=False), True),
        ("no level-2 adaptation", dict(level2=False), True),
    ],
)
def test_ablation_linpack_features(benchmark, save_report, name, overrides, expect_slower):
    def measure():
        base = run(Scenario(scheduler="acmlg_both", n=30000, seed=5)).gflops
        ablated = run(
            Scenario(scheduler="acmlg_both", n=30000, seed=5, overrides=overrides)
        ).gflops
        return base, ablated

    base, ablated = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(["configuration", "GFLOPS"], title=f"Ablation: {name}")
    table.add_row("full framework", base)
    table.add_row(name, ablated)
    save_report(f"ablation_{name.replace(' ', '_')}", table.render())
    if expect_slower:
        assert ablated < base
