"""Acceptance: an unchanged rerun of a real sweep is served from the cache.

The issue's contract: rerunning a sweep with no code or argument changes
must skip >= 90% of scenario evaluations, and the skip must be *observable*
— the exec layer mirrors its hit/miss counters into the ambient telemetry
registry, which is what this test asserts on (not internal state).
"""

from __future__ import annotations

from repro import exec as exec_policy
from repro import obs
from repro.bench.linpack_sweep import fig9_linpack_sweep

SIZES = (5750, 11500)
CONFIGS = ("cpu", "acmlg", "acmlg_both")


def _sweep(cache_dir, vectorize=False):
    telemetry = obs.Telemetry()
    policy = exec_policy.ExecutionPolicy(
        jobs=1, cache=True, cache_dir=cache_dir, vectorize=vectorize
    )
    with obs.use(telemetry), exec_policy.use(policy):
        data = fig9_linpack_sweep(sizes=SIZES, configs=CONFIGS)
    return data, telemetry.metrics


def test_unchanged_rerun_skips_at_least_90_percent(tmp_path):
    cold_data, cold_metrics = _sweep(tmp_path)
    assert cold_metrics.counter("exec.cache.misses").value() == len(SIZES) * len(CONFIGS)
    assert cold_metrics.counter("exec.tasks").value() == len(SIZES) * len(CONFIGS)

    warm_data, warm_metrics = _sweep(tmp_path)
    hits = warm_metrics.counter("exec.cache.hits").value()
    misses = warm_metrics.counter("exec.cache.misses").value()
    assert hits / (hits + misses) >= 0.9
    assert warm_metrics.counter("exec.tasks").value() == 0  # nothing recomputed

    # Served-from-disk figures are the figures, bit for bit.
    assert warm_data.series == cold_data.series


def test_vectorized_and_scalar_sweeps_share_one_cache(tmp_path):
    """Batch points are bit-identical, so either path's entries serve the other."""
    cold_data, cold_metrics = _sweep(tmp_path, vectorize=True)
    assert cold_metrics.counter("exec.cache.misses").value() == len(SIZES) * len(CONFIGS)

    warm_data, warm_metrics = _sweep(tmp_path)
    assert warm_metrics.counter("exec.cache.hits").value() == len(SIZES) * len(CONFIGS)
    assert warm_metrics.counter("exec.cache.misses").value() == 0
    assert warm_metrics.counter("exec.tasks").value() == 0
    assert warm_data.series == cold_data.series
    assert warm_data.series == _sweep(tmp_path / "scalar")[0].series
