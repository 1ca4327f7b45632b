"""Fig. 9 (Linpack by size, five configurations) and Fig. 10 (GSplit vs
workload).

Fig. 9 uses the analytic stepper on a single compute element at the standard
750 MHz clock.  Fig. 10 replays the paper's exact procedure with the DES
executor: run the Linpack sequence of trailing-update DGEMMs through the
adaptive framework ("The databases used in the adaptive method is just the
initial version.  During the running ... the databases are updated
continuously") and read ``database_g`` afterwards.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.report import SeriesData
from repro.core.adaptive import AdaptiveMapper
from repro.core.hybrid_dgemm import HybridDgemm
from repro.exec import ResultCache, current, evaluate_points, run_tasks, scenario_key
from repro.hpl.driver import CONFIGURATIONS, Configuration, single_element_cluster
from repro.hpl.grid import ProcessGrid
from repro.machine.node import ComputeElement
from repro.machine.presets import NB_GPU, tianhe1_element
from repro.machine.variability import VariabilitySpec
from repro.model import calibration as cal
from repro.session import Scenario, run
from repro.sim import Simulator
from repro.util.rng import RngStream
from repro.util.units import GFLOP, dgemm_flops

DEFAULT_SIZES = (5750, 11500, 23000, 34500, 46000)
FIG9_TASK = "fig9.point"


def _fig9_args(
    configuration: str, n: int, variability: Optional[VariabilitySpec], seed: int
) -> dict:
    """One Fig. 9 cell's arguments: its cache identity on both paths."""
    return dict(configuration=str(configuration), n=n, variability=variability, seed=seed)


def _fig9_point(
    configuration: str, n: int, variability: Optional[VariabilitySpec], seed: int
) -> float:
    """One Fig. 9 cell through a single-point run (the pool/cache worker)."""
    return run(
        Scenario(scheduler=configuration, n=n, variability=variability, seed=seed)
    ).gflops


def _fig9_config_batch(
    configuration: str,
    sizes: Sequence[int],
    variability: Optional[VariabilitySpec],
    seed: int,
) -> list[float]:
    """One configuration's whole size sweep in one panel loop."""
    from repro.hpl.batch import batch_linpack

    cluster = single_element_cluster(variability=variability)
    results = batch_linpack(configuration, sizes, cluster, ProcessGrid(1, 1), seed=seed)
    return [result.gflops for result in results]


def _fig9_values(
    configs: Sequence[Configuration],
    sizes: Sequence[int],
    variability: Optional[VariabilitySpec],
    seed: int,
) -> dict[Configuration, dict[int, float]]:
    """GFLOPS per (configuration, size) under the ambient execution policy.

    Scalar path: every cell is an independent cached/pooled task.  Vectorized
    path: each configuration's misses evaluate as *one* batch task (the size
    axis collapses into one panel loop), fanned across configurations.  Batch
    points are bit-identical to single-point runs, so both paths share one
    cache identity: a cell cached by either path is a hit for the other.
    """
    policy = current()
    if not policy.vectorize:
        flat = evaluate_points(
            FIG9_TASK,
            _fig9_point,
            [_fig9_args(c, n, variability, seed) for c in configs for n in sizes],
        )
        it = iter(flat)
        return {c: {n: next(it) for n in sizes} for c in configs}

    cache = ResultCache(policy.resolved_cache_dir) if policy.cache else None
    values: dict[Configuration, dict[int, float]] = {c: {} for c in configs}
    missing: dict[Configuration, list[int]] = {}
    for c in configs:
        for n in sizes:
            if cache is not None:
                hit, value = cache.get(
                    scenario_key(FIG9_TASK, _fig9_args(c, n, variability, seed))
                )
                policy.stats.count_cache(hit)
                if hit:
                    values[c][n] = value
                    continue
            missing.setdefault(c, []).append(n)
    if missing:
        computed = run_tasks(
            _fig9_config_batch,
            [
                dict(configuration=str(c), sizes=ns, variability=variability, seed=seed)
                for c, ns in missing.items()
            ],
        )
        for (c, ns), gflops in zip(missing.items(), computed):
            for n, value in zip(ns, gflops):
                values[c][n] = value
                if cache is not None:
                    args = _fig9_args(c, n, variability, seed)
                    cache.put(scenario_key(FIG9_TASK, args), value, task=FIG9_TASK, args=args)
    return values


def fig9_linpack_sweep(
    sizes: Sequence[int] = DEFAULT_SIZES,
    variability: VariabilitySpec = None,
    seed: int = 7,
    configs: Sequence[str] = tuple(CONFIGURATIONS),
) -> SeriesData:
    """Regenerate Fig. 9 plus the Section VI.B headline comparisons.

    *configs* accepts any HPL-capable scheduler spec — legacy configuration
    keys (the paper's five) or canonical :mod:`repro.sched` registry names;
    spellings are preserved, so cache keys and series labels are stable.
    """
    from repro.sched.builds import CONFIG_LABELS, resolve_hpl_build

    data = SeriesData(
        title="Fig 9 — Linpack performance by matrix size (GFLOPS, one compute element)",
        x_label="N",
        y_label="GFLOPS",
    )
    configs = tuple(resolve_hpl_build(c)[0] for c in configs)
    values = _fig9_values(configs, sizes, variability, seed)
    for n in sizes:
        for config in configs:
            data.add_point(CONFIG_LABELS.get(config, config), n, values[config][n])
    top = max(sizes)
    if "acmlg_both" in configs:
        best = values["acmlg_both"][top]
        data.summary[f"ACMLG+both at N={top} (paper 196.7 GFLOPS)"] = best
        data.summary["fraction of 280.5 GFLOPS element peak (paper 70.1%)"] = (
            best * 1e9 / cal.ELEMENT_PEAK
        )
        if "acmlg" in configs:
            data.summary["speedup over ACMLG (paper 3.3x)"] = best / values["acmlg"][top]
        if "cpu" in configs:
            data.summary["speedup over CPU-only (paper 5.49x)"] = best / values["cpu"][top]
    return data


def fig10_split_ratio(
    n: int = 30000,
    nb: int = NB_GPU,
    variability: VariabilitySpec = None,
    seed: int = 3,
    n_bins: int = 64,
) -> SeriesData:
    """Regenerate Fig. 10: the GPU split ratio stored per workload bin.

    Runs the Linpack trailing-update sequence (M = N_t, K = NB) through the
    DES hybrid executor with the adaptive mapper, then reports every
    ``database_g`` write (workload, new GSplit) plus the final per-bin
    values.  The initial value is the peak ratio 0.889 (Section VI.B).
    """
    var = variability if variability is not None else VariabilitySpec()
    sim = Simulator()
    element = ComputeElement(
        sim, tianhe1_element(), variability=var, rng=RngStream(seed).child("fig10")
    )
    max_workload = dgemm_flops(n, n, nb) * 1.05
    mapper = AdaptiveMapper(element.initial_gsplit, 3, max_workload=max_workload, n_bins=n_bins)
    engine = HybridDgemm(
        element, mapper, pipelined=True, jitter=not var.deterministic
    )
    trailing = n
    while trailing > nb:
        trailing -= nb
        engine.run_to_completion(trailing, trailing, nb)

    data = SeriesData(
        title="Fig 10 — GPU split ratio vs workload (database_g after a Linpack run)",
        x_label="workload (Gflop)",
        y_label="GSplit",
    )
    for write in mapper.database_g.history:
        data.add_point("stored GSplit", write.workload / GFLOP, write.value)
    values = mapper.database_g.values()
    mask = mapper.database_g.written_mask()
    for i in range(n_bins):
        if mask[i]:
            low, high = mapper.database_g.bin_range(i)
            data.add_point("final per-bin value", (low + high) / 2 / GFLOP, float(values[i]))
    data.summary["initial GSplit (paper 0.889)"] = element.initial_gsplit
    knee = cal.SPLIT_KNEE_GFLOP
    below = [v for w, v in data.series.get("stored GSplit", []) if w < knee]
    above = [v for w, v in data.series.get("stored GSplit", []) if w >= knee]
    if below:
        data.summary[f"split spread below {knee:.0f} Gflop (max-min)"] = max(below) - min(below)
    if above:
        data.summary[f"split spread above {knee:.0f} Gflop (max-min)"] = max(above) - min(above)
    return data
