"""Batch runs of the analytic stepper vs fresh single-point runs, bit for bit."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.hpl.analytic import MAPPINGS, AnalyticConfig, AnalyticHpl
from repro.hpl.batch import batch_linpack, run_batch
from repro.hpl.driver import CONFIGURATIONS, Configuration, _analytic_for, single_element_cluster
from repro.hpl.grid import ProcessGrid
from repro.machine.cluster import Cluster
from repro.machine.presets import tianhe1_cluster
from repro.session import Scenario, run

SIZES = (5750, 11500, 23000)
SEED = 7


def _scalar_elapsed(configuration, n, seed=SEED, grid=(1, 1)) -> str:
    return repr(run(Scenario(scheduler=configuration, n=n, seed=seed, grid=grid)).elapsed)


@pytest.mark.parametrize("configuration", sorted(CONFIGURATIONS))
def test_batch_matches_scalar_every_configuration(configuration):
    cluster = single_element_cluster()
    results = batch_linpack(configuration, SIZES, cluster, ProcessGrid(1, 1), seed=SEED)
    assert [result.n for result in results] == list(SIZES)
    assert [repr(result.elapsed) for result in results] == [
        _scalar_elapsed(configuration, n) for n in SIZES
    ]


def test_batch_matches_scalar_on_process_grid():
    cluster = single_element_cluster()
    results = batch_linpack(
        "acmlg_both", SIZES[:2], cluster, ProcessGrid(2, 4), seed=SEED
    )
    assert [repr(result.elapsed) for result in results] == [
        _scalar_elapsed("acmlg_both", n, grid=(2, 4)) for n in SIZES[:2]
    ]


def test_batch_per_point_nb():
    cluster = single_element_cluster()
    nbs = (768, 1216)
    ns = (11500, 11500)
    config = Configuration.ACMLG_BOTH
    stepper = _analytic_for(config, cluster, ProcessGrid(1, 1), SEED)
    batch = run_batch(stepper, ns, nbs=nbs)
    for nb, result in zip(nbs, batch):
        fresh = _analytic_for(
            config, cluster, ProcessGrid(1, 1), SEED, overrides={"nb": nb}
        )
        assert repr(result.elapsed) == repr(fresh.run(11500).elapsed)
        assert result.config.nb == nb


def _tianhe_stepper(mapping, nb=1216) -> AnalyticHpl:
    cluster = Cluster(tianhe1_cluster(cabinets=1), seed=2009)
    return AnalyticHpl(
        cluster.rate_table(),
        ProcessGrid(2, 4),
        cluster.spec.interconnect,
        variability=cluster.spec.variability,
        config=replace(AnalyticConfig(mapping=mapping), nb=nb),
    )


@pytest.mark.parametrize("mapping", MAPPINGS)
def test_batch_mixed_nb_on_process_grid(mapping):
    """Points of different panel counts finish at different steps."""
    ns, nbs = (3000, 20000, 11500), (192, 1216, 768)
    batch = run_batch(_tianhe_stepper(mapping), ns, nbs)
    assert [repr(result.elapsed) for result in batch] == [
        repr(_tianhe_stepper(mapping, nb).run(n, collect_steps=False).elapsed)
        for n, nb in zip(ns, nbs)
    ]


def test_stepper_answers_the_same_every_call():
    stepper = _analytic_for(
        Configuration.ACMLG_BOTH, single_element_cluster(), ProcessGrid(2, 4), SEED
    )
    first = stepper.run(20000)
    second = stepper.run(20000)
    assert repr(first.elapsed) == repr(second.elapsed)
    assert first.steps == second.steps
    (batched,) = run_batch(stepper, [20000])
    assert repr(batched.elapsed) == repr(first.elapsed)


def test_batch_single_point_degenerate():
    cluster = single_element_cluster()
    (result,) = batch_linpack("cpu", (5750,), cluster, ProcessGrid(1, 1), seed=SEED)
    assert repr(result.elapsed) == _scalar_elapsed("cpu", 5750)


def test_batch_rejects_faulted_stepper():
    from repro.faults.spec import FaultSpec, GpuThrottle

    cluster = single_element_cluster()
    faulted = _analytic_for(
        Configuration.ACMLG_BOTH,
        cluster,
        ProcessGrid(1, 1),
        SEED,
        faults=FaultSpec(throttles=(GpuThrottle(at=0.0, clock_factor=0.8),)),
    )
    with pytest.raises(ValueError, match="fault"):
        run_batch(faulted, (5750,))
    with pytest.raises(ValueError, match="fault"):
        faulted.run_points([(5750, 1216), (11500, 1216)])
    assert faulted.run_points([(5750, 1216)])[0].degraded is not None


def test_batch_rejects_step_traces_and_hooks():
    stepper = _analytic_for(
        Configuration.ACMLG_BOTH, single_element_cluster(), ProcessGrid(1, 1), SEED
    )
    points = [(5750, 1216), (11500, 1216)]
    with pytest.raises(ValueError, match="step traces"):
        stepper.run_points(points, collect_steps=True)
    with pytest.raises(ValueError, match="hooks"):
        stepper.run_points(points, progress=lambda trace: None)


def test_batch_seed_sensitivity_tracks_scalar():
    cluster = single_element_cluster()
    a = batch_linpack("acmlg_both", (11500,), cluster, ProcessGrid(1, 1), seed=7)
    b = batch_linpack("acmlg_both", (11500,), cluster, ProcessGrid(1, 1), seed=8)
    assert repr(a[0].elapsed) == _scalar_elapsed("acmlg_both", 11500, seed=7)
    assert repr(b[0].elapsed) == _scalar_elapsed("acmlg_both", 11500, seed=8)
    assert a[0].elapsed != b[0].elapsed
