"""Batch entry points of the analytic stepper: whole sweeps in one panel loop.

A *sweep* — Fig. 9's five sizes, a split-ratio study, a scaling curve —
asks the same stepper for several (N, NB) points.
:meth:`repro.hpl.analytic.AnalyticHpl.run_points` evaluates them all in one
panel loop: step ``jb`` stacks the trailing updates of every point that
still has a panel ``jb``, so a sweep pays the per-step overhead
``max(ceil(N_i/NB_i))`` times instead of ``sum(ceil(N_i/NB_i))`` times.
Every point is bit-identical to its own single-point
:meth:`~repro.hpl.analytic.AnalyticHpl.run` (see ``run_points`` for why).

This module only validates and delegates.  Fault injection is refused: the
injector's schedule follows one run's own clock.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.hpl.analytic import AnalyticHpl, AnalyticResult
from repro.util.validation import require, require_positive


def batch_linpack(
    configuration,
    ns: Sequence[int],
    cluster,
    grid,
    seed: int = 7,
    overrides: Optional[dict] = None,
    nbs: Optional[Sequence[int]] = None,
) -> list:
    """Batch twin of :func:`repro.hpl.driver._run_linpack` over a size sweep.

    Returns one :class:`~repro.hpl.driver.LinpackResult` per point, equal to
    running the scalar driver per point (no telemetry, no faults, no step
    traces — exactly the sweep fast path).
    """
    from repro.hpl.driver import LinpackResult, _analytic_for
    from repro.sched.builds import resolve_hpl_build

    name, _ = resolve_hpl_build(configuration)
    stepper = _analytic_for(configuration, cluster, grid, seed, overrides)
    return [
        LinpackResult(
            configuration=name,
            n=result.n,
            grid=result.grid,
            gflops=result.gflops,
            elapsed=result.elapsed,
            analytic=result,
        )
        for result in run_batch(stepper, ns, nbs)
    ]


def run_batch(
    stepper: AnalyticHpl,
    ns: Sequence[int],
    nbs: Optional[Sequence[int]] = None,
) -> list[AnalyticResult]:
    """Evaluate every ``(ns[i], nbs[i])`` point in one panel loop.

    Equal, bit for bit, to building a *fresh* stepper per point (the way
    :func:`repro.hpl.driver._run_linpack` does) and calling
    ``run(n, collect_steps=False)``.  ``nbs=None`` uses the stepper
    config's NB everywhere.  Results carry no step traces.
    """
    require(stepper.faults is None, "batch mode does not support fault injection")
    ns = [int(n) for n in ns]
    require(len(ns) > 0, "batch needs at least one point")
    nbs = [stepper.config.nb] * len(ns) if nbs is None else [int(nb) for nb in nbs]
    require(len(nbs) == len(ns), "nbs must match ns point-for-point")
    for n, nb in zip(ns, nbs):
        require_positive(n, "n")
        require_positive(nb, "nb")
    return stepper.run_points(list(zip(ns, nbs)))
