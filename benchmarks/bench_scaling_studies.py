"""Strong scaling, panel-broadcast algorithms, and the energy ledger."""

import pytest

from repro.bench.scaling_studies import run_energy_ledger, strong_scaling
from repro.machine.cluster import Cluster
from repro.machine.presets import tianhe1_cluster
from repro.session import Scenario, run
from repro.util.tables import TextTable


def test_strong_scaling(benchmark, save_report):
    data = benchmark.pedantic(strong_scaling, rounds=1, iterations=1)
    save_report("strong_scaling", data.render())
    tflops = dict(data.series["TFLOPS"])
    cabs = sorted(tflops)
    # Throughput still grows, but efficiency decays (fixed work per step
    # shrinks per process while communication terms stay).
    assert tflops[cabs[-1]] > tflops[cabs[0]]
    eff = dict(data.series["parallel efficiency %"])
    assert eff[cabs[-1]] < eff[cabs[0]]
    assert data.summary["parallel efficiency at largest machine"] > 0.35


def test_panel_bcast_algorithms(benchmark, save_report):
    """Ring vs binomial panel broadcast on a wide grid."""

    def measure():
        cluster = Cluster(tianhe1_cluster(cabinets=4), seed=2009)
        out = {}
        for lookahead in (True, False):
            for algo in ("binomial", "ring"):
                result = run(Scenario(
                    scheduler="acmlg_both", n=560_000, cluster=cluster, grid=(16, 16),
                    overrides={"bcast_algo": algo, "lookahead": lookahead},
                ))
                out[(lookahead, algo)] = result.tflops
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(
        ["lookahead", "algorithm", "TFLOPS"],
        title="Panel broadcast algorithm (16x16 grid)",
    )
    for (lookahead, algo), tflops in results.items():
        table.add_row(lookahead, algo, tflops)
    save_report("panel_bcast", table.render())
    # With look-ahead the panel broadcast hides entirely (algorithm moot);
    # without it, the pipelined ring beats the binomial tree for the long
    # panel messages — which is why HPL defaults to ring variants.
    assert results[(True, "ring")] == pytest.approx(results[(True, "binomial")], rel=0.02)
    assert results[(False, "ring")] >= results[(False, "binomial")]


def test_energy_ledger(benchmark, save_report):
    data = benchmark.pedantic(run_energy_ledger, rounds=1, iterations=1)
    save_report("energy_ledger", data.render())
    assert data.summary["run energy (kWh)"] > 1000
    # The paper's energy argument, quantified end to end: training Qilin
    # costs a substantial fraction of an entire full-system Linpack run.
    assert data.summary["training / run energy"] > 0.25
