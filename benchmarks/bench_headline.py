"""The paper's headline numbers, all in one report.

196.7 GFLOPS / 70.1% on a single compute element; 3.3x over the vendor
library; 5.49x over host-only; 0.563 PFLOPS on the full configuration;
379.24 MFLOPS/W.
"""

from repro.machine.cluster import Cluster
from repro.machine.power import TIANHE1_POWER
from repro.machine.presets import tianhe1_cluster
from repro.model import calibration as cal
from repro.session import Scenario, run
from repro.util.tables import TextTable


def headline_numbers() -> TextTable:
    table = TextTable(
        ["metric", "paper", "reproduced", "ratio"],
        title="Headline anchors: paper vs this reproduction",
    )

    def row(name, paper, ours, fmt="{:.1f}"):
        table.add_row(name, fmt.format(paper), fmt.format(ours), f"{ours / paper:.3f}")
        return ours

    best = run(Scenario(scheduler="acmlg_both", n=46000)).gflops
    vendor = run(Scenario(scheduler="acmlg", n=46000)).gflops
    cpu = run(Scenario(scheduler="cpu", n=46000)).gflops
    row("single element Linpack (GFLOPS)", 196.7, best)
    row("  fraction of element peak", 0.701, best * 1e9 / cal.ELEMENT_PEAK, "{:.3f}")
    row("  speedup over ACML-GPU", 3.3, best / vendor, "{:.2f}")
    row("  speedup over CPU-only", 5.49, best / cpu, "{:.2f}")

    full_cluster = Cluster(tianhe1_cluster(cabinets=80), seed=2009)
    full = run(
        Scenario(
            scheduler="acmlg_both", n=cal.FULL_SYSTEM_N, cluster=full_cluster, grid=(64, 80)
        )
    )
    row("full system Linpack (TFLOPS)", 563.1, full.tflops)
    green = TIANHE1_POWER.mflops_per_watt(full.gflops * 1e9, cabinets=80)
    row("Green500 (MFLOPS/W)", 379.24, green)
    return table


def test_headline_numbers(benchmark, save_report):
    table = benchmark.pedantic(headline_numbers, rounds=1, iterations=1)
    save_report("headline", table.render())
    # Every ratio column must be within the modelling band.
    for row in table.rows:
        ratio = float(row[-1])
        assert 0.70 < ratio < 1.30, f"{row[0]} off by more than 30%: {row}"
