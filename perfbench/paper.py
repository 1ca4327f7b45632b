"""Workload ``paper``: regenerate the paper's full-size artifacts, cold.

One pass runs every artifact in :data:`ARTIFACTS` serially (``jobs=1``)
through the same execution policy the bench CLI installs, with a fresh
result-cache directory, so nothing is served warm.  The suite is fixed, so
the seed changes nothing but the recorded metadata; the order is the CLI's,
because the analytic cells run measurably slower after other artifacts
than in a fresh process and a shuffled order would only add noise.  Most of the time goes to the analytic HPL stepper:
four 80-cabinet N=2,240,000 cells in ``fullsystem`` plus the one-cabinet
Fig. 11 grid.  The DES, MPI, campaign and pool layers sit nearly idle.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path
from typing import Any

from harness import Outcome, median, peak_rss_mb
from tracing import PackageProfile, Tracer, layer_metrics, trace_details

#: The artifacts of one pass.  Fig. 12 and Fig. 13 are left out: they run the
#: same 80-cabinet analytic cells as ``fullsystem`` and would double a pass
#: past the time one benchmark run may take (see README.md).
ARTIFACTS = (
    "fig8", "fig9", "fig10", "fig11", "clock-sweep", "endgame-fallback",
    "faults", "fullsystem", "table1", "worked-example",
)
PAPER_N = 2_240_000


def prepare(seed: int) -> list[str]:
    """Import the suite (the set-up being timed); the pass order."""
    from repro.bench import cli  # noqa: F401
    from repro.exec import code_version

    code_version()
    return list(ARTIFACTS)


def _summary(name: str) -> Any:
    """Regenerate one full-size artifact; returns its checkable summary."""
    from repro.bench import cli

    if name in cli.TEXT_ARTIFACTS:
        text = cli.TEXT_ARTIFACTS[name](False)
        return {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    data = cli.FIGURES[name](False)
    return {key: value for key, value in data.summary.items()}


def summaries_match(expected: dict, actual: dict) -> bool:
    if set(expected) != set(actual):
        return False
    for key, want in expected.items():
        got = actual[key]
        if isinstance(want, float) or isinstance(got, float):
            if not math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=1e-12):
                return False
        elif got != want:
            return False
    return True


class _Recorder:
    """Always-on spans: the session runs and the analytic stepper calls."""

    def __init__(self, tracer: Tracer) -> None:
        from repro.hpl import batch
        from repro.hpl.analytic import AnalyticHpl
        from repro.session.sync import Session

        self.paper_cells: list[float] = []
        self.panel_steps = 0
        self.analytic_runs = 0
        tracer.wrap(Session, "run", "session.run", on_exit=self._session_run)
        tracer.wrap(AnalyticHpl, "run", "hpl.analytic_run", on_exit=self._analytic_run)
        tracer.wrap(batch, "run_batch", "hpl.run_batch", on_exit=self._run_batch)

    def _session_run(self, seconds: float, args: tuple, kwargs: dict, result: Any) -> None:
        if args[0].scenario.n == PAPER_N:
            self.paper_cells.append(seconds)

    def _analytic_run(self, seconds: float, args: tuple, kwargs: dict, result: Any) -> None:
        stepper, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
        self.analytic_runs += 1
        self.panel_steps += -(-int(n) // int(stepper.config.nb))

    def _run_batch(self, seconds: float, args: tuple, kwargs: dict, result: Any) -> None:
        stepper, ns = args[0], list(args[1] if len(args) > 1 else kwargs["ns"])
        nbs = args[2] if len(args) > 2 else kwargs.get("nbs")
        nbs = list(nbs) if nbs is not None else [stepper.config.nb] * len(ns)
        self.analytic_runs += len(ns)
        self.panel_steps += sum(-(-int(n) // int(nb)) for n, nb in zip(ns, nbs))


def _wrap_layers(tracer: Tracer) -> None:
    """Traced-run-only spans at the exec / machine boundaries."""
    from repro.exec import cache, pool
    from repro.machine.cluster import Cluster

    tracer.wrap(pool, "evaluate_points", "exec.evaluate_points")
    tracer.wrap(cache.ResultCache, "get", "exec.cache_get")
    tracer.wrap(cache.ResultCache, "put", "exec.cache_put")
    tracer.wrap(Cluster, "__init__", "machine.cluster_build")


def _one_pass(order: list[str], cache_dir: Path, reference: dict, outcome: Outcome) -> tuple[float, Any]:
    from repro import exec as exec_policy

    policy = exec_policy.ExecutionPolicy(jobs=1, cache=True, cache_dir=cache_dir, vectorize=True)
    started = time.perf_counter()
    with exec_policy.use(policy):
        for name in order:
            try:
                summary = _summary(name)
            except Exception as error:  # noqa: BLE001 - counted as a failed artifact
                outcome.check(False, f"{name}: {type(error).__name__}: {error}")
                continue
            outcome.check(summaries_match(reference[name], summary), f"{name}: summary differs")
    return time.perf_counter() - started, policy.stats


def _paper_cell_probe() -> float:
    """Wall of one fullsystem cell, the unit the tracing overhead is taken on."""
    from repro.bench.fullsystem import _sweep_point
    from repro.bench.scaling import problem_size_for_cabinets

    started = time.perf_counter()
    _sweep_point(algo="binomial", n=problem_size_for_cabinets(80), cabinets=80,
                 seed=7, cluster_seed=2009)
    return time.perf_counter() - started


def run(seed: int, seconds: float, trace: bool, workdir: Path, reference: dict) -> Outcome:
    outcome = Outcome()
    order = prepare(seed)
    tracer = Tracer()
    recorder = _Recorder(tracer)
    if trace:
        _wrap_layers(tracer)
    profile = PackageProfile()
    passes: list[float] = []
    stats = None
    try:
        began = time.perf_counter()
        while not passes or time.perf_counter() - began + passes[-1] <= seconds:
            cache_dir = workdir / f"cache-{len(passes)}"
            if trace:
                with profile:
                    wall, stats = _one_pass(order, cache_dir, reference["paper"], outcome)
            else:
                wall, stats = _one_pass(order, cache_dir, reference["paper"], outcome)
            passes.append(wall)
    finally:
        tracer.restore()

    analytic_s = tracer.total("hpl.analytic_run") + tracer.total("hpl.run_batch")
    outcome.details.update({
        "passes": len(passes), "artifacts_per_pass": len(order), "order": order,
        "paper_cell_samples": len(recorder.paper_cells),
        "rule": "wait_s = median pass wall; cell_s = median of the 80-cabinet session runs",
    })
    outcome.metrics.update({
        "wait_s": median(passes),
        "cell_s": median(recorder.paper_cells),
        "rate_per_s": recorder.panel_steps / analytic_s if analytic_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    })
    if trace:  # totals over the traced region, like trace.wall_s
        # The same cell untraced, after the pass, so the process is in the
        # state the traced cells ran in.
        untraced_cell = _paper_cell_probe()
        outcome.metrics.update(layer_metrics(profile))
        outcome.details.update(trace_details(profile))
        lookups = stats.cache_hits + stats.cache_misses
        outcome.metrics.update({
            "hpl.analytic_run_s": analytic_s,
            "hpl.analytic_runs": recorder.analytic_runs,
            "hpl.panel_steps": recorder.panel_steps,
            "exec.tasks": stats.tasks,
            "exec.cache_hits": stats.cache_hits,
            "exec.cache_misses": stats.cache_misses,
            "exec.hit_rate": stats.cache_hits / lookups if lookups else 0.0,
            "exec.cache_get_ms": tracer.mean_ms("exec.cache_get"),
            "exec.cache_put_ms": tracer.mean_ms("exec.cache_put"),
            "exec.evaluate_self_s": tracer.spans["exec.evaluate_points"].self_time,
            "session.run_s": tracer.total("session.run"),
            "obs.tracing_overhead": median(recorder.paper_cells) / untraced_cell - 1.0,
        })
    return outcome


def setup_probe(seed: int) -> None:
    prepare(seed)
