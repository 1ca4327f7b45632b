"""Batch mode for the analytic stepper: whole sweeps as array ops.

:meth:`repro.hpl.analytic.AnalyticHpl.run` walks one Linpack's panel steps
in a Python loop whose per-step arithmetic is already vectorized over the
P x Q grid.  A *sweep* — Fig. 9's five sizes, a split-ratio study, a
scaling curve — runs that loop once per point, paying the Python-level
per-step overhead ``sum(ceil(N_i/NB_i))`` times.  This module runs the loop
**once for the whole sweep** by giving every per-step array a leading batch
axis: step ``jb`` evaluates all points that still have a panel ``jb``, and
points that finished earlier are masked out of the elapsed accumulation.

Why this is exact, not approximate: every stochastic draw in the scalar
stepper (slow-noise innovations, adaptive measurement noise, Qilin training
realisations) happens once per *step index* with a size that depends only on
the grid — never on N or NB.  Two scalar runs with the same config and seed
therefore consume identical RNG sequences step-for-step, which is precisely
what lets one shared draw serve every point of the batch.  All remaining
arithmetic is elementwise or exact reductions (max), so batch results match
a fresh scalar run **bit-for-bit** in practice; the declared contract
(tested, and documented in ``docs/performance.md``) is agreement to 1e-9
relative.  The scalar path remains the verification oracle.

Restrictions: no fault injection (the injector's schedule is a function of
each run's own elapsed time), no per-step traces, no progress/telemetry
hooks.  Sweeps that need any of those fall back to the scalar stepper.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from repro.hpl.analytic import (
    AnalyticHpl,
    AnalyticResult,
    UpdateModel,
    panel_bcast_critical_time,
    panel_bcast_time,
)
from repro.machine.variability import SlowNoise
from repro.util.rng import RngStream
from repro.util.units import DOUBLE_BYTES, lu_flops
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


def _first_local_at_or_after_batch(g: np.ndarray, nb: np.ndarray, nprocs: int) -> np.ndarray:
    """(B, nprocs) twin of ``analytic._first_local_at_or_after`` with per-point nb."""
    procs = np.arange(nprocs)
    block, offset = np.divmod(g, nb)
    cycle, pos = np.divmod(block, nprocs)
    low = (cycle * nb)[:, None]
    high = ((cycle + 1) * nb)[:, None]
    out = np.where(procs[None, :] > pos[:, None], low, high)
    return np.where(procs[None, :] == pos[:, None], low + offset[:, None], out)


def _local_count_batch(n: np.ndarray, nb: np.ndarray, nprocs: int) -> np.ndarray:
    """(B, nprocs) twin of ``analytic._local_count`` with per-point nb."""
    procs = np.arange(nprocs)
    nblocks = -(-n // nb)
    owned = (nblocks[:, None] - procs[None, :] + nprocs - 1) // nprocs
    count = owned * nb[:, None]
    count[np.arange(len(n)), (nblocks - 1) % nprocs] -= nblocks * nb - n
    return count


def run_batch(
    stepper: AnalyticHpl,
    ns: Sequence[int],
    nbs: Optional[Sequence[int]] = None,
) -> list[AnalyticResult]:
    """Evaluate every ``(ns[i], nbs[i])`` point in one vectorized pass.

    Equivalent to building a *fresh* stepper per point (the way
    :func:`repro.hpl.driver._run_linpack` does) and calling
    ``run(n, collect_steps=False)`` — same seeds, same noise realisations,
    same numbers.  ``nbs=None`` uses the stepper config's NB everywhere.
    Results carry no step traces; use the scalar oracle when you need them.
    """
    cfg = stepper.config
    require(stepper.faults is None, "batch mode does not support fault injection")
    nv = np.asarray(list(ns), dtype=np.int64)
    require(nv.size > 0, "batch needs at least one point")
    for n in nv:
        require_positive(int(n), "n")
    if nbs is None:
        nbv = np.full(nv.shape, cfg.nb, dtype=np.int64)
    else:
        nbv = np.asarray(list(nbs), dtype=np.int64)
        require(nbv.shape == nv.shape, "nbs must match ns point-for-point")
        for nb in nbv:
            require_positive(int(nb), "nb")

    grid, table, var = stepper.grid, stepper.table, stepper.var
    P, Q = grid.nprow, grid.npcol
    B = nv.size
    n_blocks = -(-nv // nbv)
    max_blocks = int(n_blocks.max())

    # A fresh generator, exactly like a fresh scalar stepper's: the scalar
    # oracle builds one AnalyticHpl per run, so its stream always starts here.
    rng = RngStream(cfg.seed).child("analytic").generator()
    gpu_noise = SlowNoise(grid.size, var.slow_noise_sigma, var.slow_noise_rho, rng)
    cpu_noise = SlowNoise(grid.size, var.slow_noise_sigma, var.slow_noise_rho, rng)
    meas_sigma = var.measurement_sigma

    ga = stepper._grid_array
    gpu_base = ga(table.gpu_peak)
    drift_depth = ga(table.drift_depth)
    cpu_hybrid = ga(table.cpu_hybrid_rate)
    cpu_even = ga(table.cpu_hybrid_even_rate)
    cpu_full = ga(table.cpu_full_rate)
    initial_gsplit = ga(table.initial_gsplit)

    if cfg.mapping == "qilin":
        train_noise = SlowNoise(
            grid.size, var.slow_noise_sigma, var.slow_noise_rho,
            RngStream(cfg.seed).child("qilin-train").generator(),
        )
        train_peak = gpu_base * ga(train_noise.factors())
        train_sigma = var.training_measurement_sigma
        if train_sigma > 0:
            err = RngStream(cfg.seed).child("qilin-meas").generator()
            train_peak = train_peak * np.exp(
                err.normal(-0.5 * train_sigma**2, train_sigma, train_peak.shape)
            )
            train_cpu = cpu_even * np.exp(
                err.normal(-0.5 * train_sigma**2, train_sigma, cpu_even.shape)
            )
        else:
            train_cpu = cpu_even

    # Per-point block-cyclic totals (constant over the run).
    total_rows = _local_count_batch(nv, nbv, P)  # (B, P)
    total_cols = _local_count_batch(nv, nbv, Q)  # (B, Q)

    elapsed = np.zeros(B)
    cpu_panel_rate = float(np.mean(cpu_hybrid)) * cfg.panel_efficiency
    log2P = math.ceil(math.log2(P)) if P > 1 else 0
    log2Q = math.ceil(math.log2(Q)) if Q > 1 else 0

    for jb in range(max_blocks):
        active = jb < n_blocks
        j = jb * nbv
        jbw = np.maximum(np.minimum(nbv, nv - j), 0)  # 0 on finished points
        gpu_noise.step()
        cpu_noise.step()
        gpu_slow = ga(gpu_noise.factors())
        cpu_slow = ga(cpu_noise.factors())
        # math.exp per point keeps the drift factor bit-identical to the
        # scalar oracle (np.exp may differ from libm by an ulp).
        if table.drift_tau > 0:
            warm = np.array([math.exp(-float(e) / table.drift_tau) for e in elapsed])
            drift = 1.0 - drift_depth[None, :, :] * (1.0 - warm)[:, None, None]
        else:
            drift = np.broadcast_to(1.0 - drift_depth, (B, P, Q))
        peak_now = gpu_base[None, :, :] * drift * gpu_slow[None, :, :]

        g = j + jbw
        m_loc = np.maximum(total_rows - _first_local_at_or_after_batch(g, nbv, P), 0)
        n_loc = np.maximum(total_cols - _first_local_at_or_after_batch(g, nbv, Q), 0)
        model = UpdateModel(
            stepper,
            m_loc[:, :, None].astype(float),
            n_loc[:, None, :].astype(float),
            jbw.astype(float)[:, None, None],
        )

        if cfg.mapping == "cpu_only":
            gsplit = np.zeros((B, P, Q))
            cpu_rate = cpu_full * cpu_slow
        elif cfg.mapping == "gpu_only":
            gsplit = np.ones((B, P, Q))
            cpu_rate = cpu_hybrid * cpu_slow
        elif cfg.mapping == "static":
            gsplit = np.broadcast_to(initial_gsplit, (B, P, Q))
            cpu_rate = cpu_even * cpu_slow
        elif cfg.mapping == "qilin":
            gsplit = model.balanced_split(train_peak, train_cpu)
            cpu_rate = cpu_even * cpu_slow
        else:  # adaptive
            cpu_rate = (cpu_hybrid if cfg.level2 else cpu_even) * cpu_slow
            if meas_sigma > 0:
                mfac = np.exp(rng.normal(-0.5 * meas_sigma**2, meas_sigma, (2, P, Q)))
            else:
                mfac = np.ones((2, P, Q))
            gsplit = model.balanced_split(peak_now * mfac[0], cpu_rate * mfac[1])

        makespan = model.makespan(gsplit, peak_now, cpu_rate)
        if cfg.endgame_cpu_fallback and cfg.mapping not in ("cpu_only",):
            t_cpu_full = np.where(
                model.w > 0, model.w / np.maximum(cpu_full * cpu_slow, 1e-9), 0.0
            )
            makespan = np.minimum(makespan, t_cpu_full)
        t_update = makespan.max(axis=(1, 2))

        n_loc_max = n_loc.max(axis=1)
        w_update_max = model.w.max(axis=(1, 2))
        # Guard matches the scalar oracle's `if t_update > 0` branch: real
        # update times are far above the 1e-300 floor, and t_update == 0
        # takes the mean-CPU-rate branch exactly as the scalar code does.
        hybrid_rate = np.where(
            t_update > 0,
            w_update_max / np.maximum(t_update, 1e-300),
            float(np.mean(cpu_rate)),
        )
        t_dtrsm = (jbw * jbw * n_loc_max) / np.maximum(hybrid_rate, 1e-9)

        if P > 1:
            panel_rows_local = np.maximum(np.ceil((nv - j) / P).astype(np.int64), jbw)
        else:
            panel_rows_local = nv - j
        t_panel = (panel_rows_local * jbw * jbw - jbw**3 / 3.0) / cpu_panel_rate
        if P > 1:
            t_panel = t_panel + jbw * stepper._alpha_beta(16.0, max(1, log2P))
        panel_bytes = panel_rows_local * jbw * DOUBLE_BYTES
        net_latency = stepper.net.latency if stepper.net else 0.0
        net_bandwidth = stepper.net.bandwidth if stepper.net else None
        t_pbcast = panel_bcast_time(
            cfg.bcast_algo, panel_bytes.astype(float), Q, net_latency, net_bandwidth
        )
        if np.isscalar(t_pbcast):
            t_pbcast = np.full(B, float(t_pbcast))
        swap_bytes = jbw * n_loc_max * DOUBLE_BYTES
        t_swap = stepper._alpha_beta(swap_bytes, 1) if P > 1 else np.zeros(B)
        t_ubcast = stepper._alpha_beta(jbw * n_loc_max * DOUBLE_BYTES, log2P)
        t_comm = t_pbcast + t_swap + t_ubcast
        if cfg.lookahead:
            t_pbcast_crit = panel_bcast_critical_time(
                cfg.bcast_algo, panel_bytes.astype(float), Q, net_latency, net_bandwidth
            )
            step_time = (
                np.maximum(
                    np.maximum(t_update + t_dtrsm, t_panel + t_pbcast_crit), t_pbcast
                )
                + t_swap
                + t_ubcast
            )
        else:
            step_time = t_panel + t_dtrsm + t_comm + t_update
        elapsed = elapsed + np.where(active, step_time, 0.0)

    solve_rate = float(np.mean(cpu_full if cfg.mapping == "cpu_only" else cpu_hybrid))
    elapsed = elapsed + 2.0 * nv.astype(float) ** 2 / (grid.size * solve_rate) + (
        stepper._alpha_beta(nv.astype(float) * DOUBLE_BYTES, 2 * (P + Q))
    )

    return [
        AnalyticResult(
            n=int(nv[i]),
            grid=(P, Q),
            config=cfg if int(nbv[i]) == cfg.nb else replace(cfg, nb=int(nbv[i])),
            elapsed=float(elapsed[i]),
            flops=lu_flops(int(nv[i])),
            steps=[],
        )
        for i in range(B)
    ]
