"""Vectorized analytic HPL stepper — the petascale engine.

Exactly the per-panel dataflow of :mod:`repro.hpl.dist`, but with every
rank's timing computed from the calibrated closed-form models
(:mod:`repro.model.dgemm_model`'s formulas, vectorized over the whole P x Q
grid with numpy) instead of discrete events.  This is what makes the paper's
full-configuration experiments computable: N = 2 240 000 over a 64 x 80 grid
is ~1840 panel steps of array arithmetic.  One panel loop
(:meth:`AnalyticHpl.run_points`) serves a single run and whole sweeps: it
stacks the trailing updates of several (N, NB) points over a leading axis,
and each point's result is bit-identical to its own single-point run.

Per step (panel ``jb``, width ``jbw``):

1. panel factorization on the owning grid column (CPU, plus the per-column
   pivot-search allreduce),
2. panel broadcast along grid rows (binomial alpha-beta),
3. pivot row exchanges inside grid columns,
4. U12 triangular solve on the owning grid row + broadcast down columns,
5. per-rank hybrid trailing update — GPU path (task split, transfers,
   pipeline overlap) vs CPU path, split according to the configured mapping
   — and the step completes when the slowest rank finishes.

Mappings:

* ``adaptive``  — the paper's framework: split from *fresh* (last-step)
  measurements, per-core level-2 balancing.
* ``static``    — peak-ratio split, even core splits, never updated.
* ``qilin``     — split trained before the run (cold rates + measurement
  noise, an independent realisation of the slow condition noise), then
  frozen; even core splits (Qilin has no level 2 — Section IV.A).
* ``gpu_only``  — the vendor-library offload (ACML-GPU): everything on the
  GPU, synchronous transfers.
* ``cpu_only``  — MKL on all four cores, no GPU, no transfers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.spec import DegradedMode, FaultSpec
from repro.hpl.grid import ProcessGrid
from repro.machine.cluster import ElementRateTable
from repro.machine.specs import InterconnectSpec
from repro.machine.variability import SlowNoise, VariabilitySpec
from repro.mpi.bcast import canonical_algorithm
from repro.util.rng import RngStream
from repro.util.units import DOUBLE_BYTES, lu_flops
from repro.util.validation import require, require_positive

MAPPINGS = ("adaptive", "static", "qilin", "gpu_only", "cpu_only")


def panel_bcast_time(algo: str, panel_bytes, q: int, latency: float, bandwidth):
    """Alpha-beta completion time of one panel broadcast along a Q-rank row.

    Mirrors the DES algorithms in :mod:`repro.mpi.bcast` in closed form
    (B = panel bytes, a = latency, B/bw = serialisation time):

    * ``binomial`` — ``ceil(log2 Q)`` full-message hops.
    * ``1ring`` — pipelined chain: ~2 message times once streaming, plus the
      remaining per-hop latencies.
    * ``1rm`` — same chain volume, one extra latency (the root's second
      send); its payoff is the *critical-path* time below, not this total.
    * ``long`` — scatter + ring allgather: ``2 (Q-1)`` latencies but only
      ``~2 B (Q-1)/Q`` bytes through any rank.

    ``bandwidth=None`` (no network) costs zero.
    """
    if q <= 1 or bandwidth is None:
        return 0.0
    message = latency + panel_bytes / bandwidth
    if algo == "1ring":
        return 2.0 * message + (q - 2) * latency
    if algo == "1rm":
        return 2.0 * message + (q - 1) * latency
    if algo == "long":
        return 2.0 * (q - 1) * latency + (2.0 * (q - 1) / q) * (panel_bytes / bandwidth)
    return math.ceil(math.log2(q)) * message


def panel_bcast_critical_time(algo: str, panel_bytes, q: int, latency: float, bandwidth):
    """Time until the *next* panel's owner holds this panel.

    Look-ahead only needs the next diagonal owner (the rank after the root)
    to have the panel before the following step can start its factorization.
    ``1rm`` serves that rank first with a single direct message — the whole
    reason HPL pairs it with look-ahead; every other algorithm frees it only
    when the broadcast completes.
    """
    if q <= 1 or bandwidth is None:
        return 0.0
    if algo == "1rm":
        return latency + panel_bytes / bandwidth
    return panel_bcast_time(algo, panel_bytes, q, latency, bandwidth)


@dataclass(frozen=True)
class AnalyticConfig:
    """Configuration of one analytic Linpack run."""

    nb: int = 1216
    mapping: str = "adaptive"
    pipelined: bool = True
    pinned: bool = True
    host_bw_override: Optional[float] = None  # explicit host-hop bandwidth
    lookahead: bool = True  # overlap panel factorization with the update
    level2: bool = True  # per-core (level-2) adaptation for adaptive mapping
    # Section VI.C closes with "the GPU is less effective when the matrix
    # size is relatively small and this can be a potential optimization".
    # This flag implements that future-work idea: when a rank's hybrid
    # makespan would exceed a pure-CPU update on all four cores (transfer
    # core reclaimed, no PCIe traffic), fall back to the CPU path.
    endgame_cpu_fallback: bool = False
    # Panel broadcast algorithm along grid rows — HPL's BCAST family (see
    # repro.mpi.bcast and docs/distributed.md): "binomial" costs
    # ceil(log2 Q) alpha-beta hops; "1ring" (alias "ring") pipelines long
    # messages down the chain, ~2 message times once streaming; "1rm" frees
    # the next panel's owner after a single message (the look-ahead
    # critical path); "long" is the scatter+allgather spread-roll moving
    # only ~2B(Q-1)/Q bytes per rank.
    bcast_algo: str = "binomial"

    texture_limit: int = 8192
    panel_efficiency: float = 0.6  # CPU efficiency on the panel phase
    split_iterations: int = 6  # fixed-point iterations for balanced splits
    seed: int = 7

    def __post_init__(self) -> None:
        require(self.mapping in MAPPINGS, f"unknown mapping {self.mapping!r}")
        require_positive(self.nb, "nb")
        # Normalise aliases ("ring" -> "1ring") and reject unknown names.
        object.__setattr__(self, "bcast_algo", canonical_algorithm(self.bcast_algo))


@dataclass
class StepTrace:
    """Timing of one panel step (for the progress curve, Fig. 13)."""

    step: int
    j: int
    trailing: int
    step_time: float
    update_time: float
    panel_time: float
    comm_time: float
    flops: float
    cum_time: float
    cum_flops: float
    mean_gsplit: float

    @property
    def cum_gflops(self) -> float:
        """Average rate up to and including this step."""
        return self.cum_flops / self.cum_time / 1e9 if self.cum_time > 0 else 0.0


@dataclass
class AnalyticResult:
    """Outcome of one analytic Linpack run."""

    n: int
    grid: tuple[int, int]
    config: AnalyticConfig
    elapsed: float
    flops: float
    steps: list[StepTrace] = field(default_factory=list)
    #: Fault/degradation summary; None when the run saw no fault at all.
    degraded: Optional[DegradedMode] = None

    @property
    def gflops(self) -> float:
        """The HPL figure of merit: (2/3 N^3 + 2 N^2) / time."""
        return self.flops / self.elapsed / 1e9

    @property
    def tflops(self) -> float:
        return self.gflops / 1e3

    def progress_curve(self) -> list[tuple[float, float]]:
        """(fraction of flops completed, cumulative GFLOPS) per step — Fig. 13."""
        return [(s.cum_flops / self.flops, s.cum_gflops) for s in self.steps]


def _first_local_at_or_after(g: int, nb: int, nprocs: int) -> np.ndarray:
    """Vectorized BlockCyclic.first_local_at_or_after over all procs."""
    procs = np.arange(nprocs)
    block, offset = divmod(g, nb)
    cycle, pos = divmod(block, nprocs)
    out = np.where(procs > pos, cycle * nb, (cycle + 1) * nb)
    out = np.where(procs == pos, cycle * nb + offset, out)
    return out


def _local_count(n: int, nb: int, nprocs: int) -> np.ndarray:
    """Vectorized BlockCyclic.local_count over all procs."""
    procs = np.arange(nprocs)
    nblocks = -(-n // nb) if n else 0
    if nblocks == 0:
        return np.zeros(nprocs, dtype=int)
    owned = (nblocks - procs + nprocs - 1) // nprocs
    count = owned * nb
    count[(nblocks - 1) % nprocs] -= nblocks * nb - n
    return count


class UpdateModel:
    """The hybrid trailing update of one panel step, vectorized over ranks.

    The vectorized twin of :mod:`repro.model.dgemm_model` for
    ``C[m,n] += A[m,k] B[k,n]`` on every rank at once.  ``m`` holds the
    trailing rows per grid row (shape ``(..., P, 1)``), ``n`` the trailing
    columns per grid column (``(..., 1, Q)``) and ``k`` the panel width; the
    leading axis stacks the points of one :meth:`AnalyticHpl.run_points` step.
    ``xfer_factor`` >= 1 inflates every PCIe transfer term — the expected
    cost of retried transfers under an active PCIe fault.

    Everything that depends only on the step is computed once here and
    shared by the fixed-point passes of :meth:`balanced_split` and the
    final :meth:`makespan`.  The results are bit-identical to evaluating
    the closed-form model directly: the only reassociated expressions are
    products of exact integers below 2**53 (the work ``2 m1 n k`` and the
    byte counts) and scalings by powers of two (``DOUBLE_BYTES``,
    ``4 * latency``), and a ``np.where`` is skipped only when its mask is
    all true.
    """

    def __init__(self, stepper: "AnalyticHpl", m, n, k, xfer_factor: float = 1.0) -> None:
        cfg, table = stepper.config, stepper.table
        self.w = w = 2.0 * m * n * k

        def full(a):
            # Invariants are stored at the grid's full shape: an op with a
            # broadcast (P,1) or (1,Q) operand costs ~1.5x a contiguous one.
            out = np.empty(w.shape)
            out[...] = a
            return out

        self._m = full(m)
        self._w_per_row = full(2.0 * n * k)
        self._eff_max = stepper._eff_max
        self._w_half = stepper._w_half
        self._kernel_overhead = stepper._kernel_overhead2d
        self._texture_limit = cfg.texture_limit
        self._pipelined = cfg.pipelined
        self._iterations = cfg.split_iterations

        colsb = np.maximum(1, np.ceil(n / cfg.texture_limit))
        self._colsb = full(colsb)
        # With several column tiles everywhere, every live rank pipelines.
        self._all_col_tiled = bool((colsb > 1).all())
        # Bytes moved per task: A1 + B + C-in (beta=1) in, C out.
        self._in_per_row = full(DOUBLE_BYTES * (k + n))
        self._io_per_row = full(DOUBLE_BYTES * (k + 2 * n))
        self._out_per_row = full(DOUBLE_BYTES * n)
        self._b_bytes = full(DOUBLE_BYTES * (k * n))
        # The pipeline prologue's first input tile, in bytes.
        self._first_in_per_row = full(DOUBLE_BYTES * (k + n / colsb))
        self._first_in_fixed = full(DOUBLE_BYTES * (k * n / colsb))

        if cfg.host_bw_override is not None:
            host_bw = cfg.host_bw_override
        else:
            host_bw = table.pinned_bw if cfg.pinned else table.pageable_bw
        if xfer_factor != 1.0:
            host_bw = host_bw / xfer_factor
        self._host_bw = host_bw
        self._per_byte_serial = 1.0 / host_bw + xfer_factor / table.gpu_bw
        self._lat = table.pcie_latency * xfer_factor
        self._lat3 = 3 * self._lat
        self._lat4 = 4 * self._lat

    def _times(self, gsplit, peak, cpu_rate_floor) -> tuple[np.ndarray, np.ndarray]:
        """(t_gpu, t_cpu) per rank for GPU share *gsplit* at GPU *peak*.

        *cpu_rate_floor* is the CPU rate clamped to at least 1e-9.
        """
        m1 = np.rint(self._m * gsplit)
        w_gpu = m1 * self._w_per_row
        w_cpu = self.w - w_gpu
        # The masks' all-true test is a min reduction: one pass over the
        # data instead of a compare and an all (NaN fails it, too).  All
        # live implies m1 > 0 everywhere (the per-row work is >= 0): every
        # rank then has at least one row tile and the task-count select is
        # a no-op.
        all_live = w_gpu.min() > 0
        live = None if all_live else w_gpu > 0
        eff = self._eff_max * w_gpu / (w_gpu + self._w_half)
        rate = peak * (eff if all_live else np.where(live, eff, 0.0))
        rows = np.ceil(m1 / self._texture_limit)
        if all_live:
            n_tasks = rows * self._colsb
        else:
            rows = np.maximum(1, rows)
            n_tasks = np.where(m1 > 0, rows * self._colsb, 0)
        t_kernel = n_tasks * self._kernel_overhead + w_gpu / np.maximum(rate, 1e-9)
        if not all_live:
            t_kernel = np.where(live, t_kernel, 0.0)

        if self._pipelined:
            first_in = m1 / rows * self._first_in_per_row + self._first_in_fixed
            prologue = self._lat3 + first_in * self._per_byte_serial
            io_bytes = m1 * self._io_per_row + self._b_bytes
            t_link = n_tasks * self._lat4 + io_bytes / self._host_bw
            t_gpu = np.maximum(t_kernel, t_link - prologue) + prologue
            if not (all_live and self._all_col_tiled) and not n_tasks.min() > 1:
                sync = self._t_sync(m1, n_tasks, t_kernel)
                t_gpu = np.where(n_tasks > 1, t_gpu, sync)
        else:
            t_gpu = self._t_sync(m1, n_tasks, t_kernel)
        if not all_live:
            t_gpu = np.where(live, t_gpu, 0.0)

        t_cpu = w_cpu / cpu_rate_floor
        if not w_cpu.min() > 0:
            t_cpu = np.where(w_cpu > 0, t_cpu, 0.0)
        return t_gpu, t_cpu

    def _t_sync(self, m1, n_tasks, t_kernel) -> np.ndarray:
        """Unpipelined GPU time: all input, then the kernels, then all output."""
        lat, per_byte = self._lat, self._per_byte_serial
        t_in = 3 * n_tasks * lat + (m1 * self._in_per_row + self._b_bytes) * per_byte
        t_out = n_tasks * lat + (m1 * self._out_per_row) * per_byte
        return t_in + t_kernel + t_out

    def makespan(self, gsplit, peak, cpu_rate) -> np.ndarray:
        """Per-rank update time: the slower of the GPU and CPU shares."""
        t_gpu, t_cpu = self._times(gsplit, peak, np.maximum(cpu_rate, 1e-9))
        return np.maximum(t_gpu, t_cpu)

    def balanced_split(self, peak, cpu_rate) -> np.ndarray:
        """The level-1 fixed point GSplit <- P_G/(P_G+P_C).

        Always ``split_iterations`` passes: the rounding of ``m * gsplit``
        to whole rows turns tiny split changes into row moves, so an early
        exit would change results.
        """
        w = self.w
        cpu_rate_floor = np.maximum(cpu_rate, 1e-9)
        gsplit = np.full(w.shape, 0.7)
        for _ in range(self._iterations):
            t_gpu, t_cpu = self._times(gsplit, peak, cpu_rate_floor)
            w_gpu = w * gsplit
            p_g = w_gpu / np.maximum(t_gpu, 1e-12)
            if not t_gpu.min() > 0:
                p_g = np.where(t_gpu > 0, p_g, 0.0)
            p_c = (w - w_gpu) / np.maximum(t_cpu, 1e-12)
            if not t_cpu.min() > 0:
                p_c = np.where(t_cpu > 0, p_c, cpu_rate)
            with np.errstate(invalid="ignore"):
                new = p_g / np.maximum(p_g + p_c, 1e-9)
            finite = np.isfinite(new)
            if not finite.all():
                new = np.where(finite, new, gsplit)
            gsplit = np.clip(new, 0.01, 1.0)
        return gsplit


class AnalyticHpl:
    """One reusable stepper bound to a rate table, grid and interconnect."""

    def __init__(
        self,
        table: ElementRateTable,
        grid: ProcessGrid,
        interconnect: Optional[InterconnectSpec],
        variability: Optional[VariabilitySpec] = None,
        config: AnalyticConfig = AnalyticConfig(),
        faults: Optional[FaultSpec] = None,
    ) -> None:
        require(
            table.n_elements >= grid.size,
            f"rate table has {table.n_elements} elements, grid needs {grid.size}",
        )
        self.table = table.subset(np.arange(grid.size))
        self.grid = grid
        self.net = interconnect
        self.var = variability if variability is not None else VariabilitySpec()
        self.config = config
        self.faults = faults if faults else None
        self._kernel_overhead2d = self._grid_array(self.table.kernel_overhead)
        self._eff_max = self._grid_array(self.table.eff_max)
        self._w_half = self._grid_array(self.table.w_half)

    # -- per-rank 2-D views of the element population ------------------------------
    def _grid_array(self, flat: np.ndarray) -> np.ndarray:
        return np.asarray(flat)[: self.grid.size].reshape(self.grid.nprow, self.grid.npcol)

    def _alpha_beta(self, nbytes: float, hops: int) -> float:
        if self.net is None or hops <= 0:
            return 0.0
        return hops * (self.net.latency + nbytes / self.net.bandwidth)

    def _publish_step(self, telemetry, trace: StepTrace, step_start: float) -> None:
        """One panel's spans (virtual timeline) and progress series."""
        sink = telemetry.sink
        # Phase spans laid out on the step's slice of the virtual timeline.
        # Under look-ahead the panel overlaps the update, so both start at
        # the step start; communication closes the step.
        sink.complete(
            "hpl/update", "update", step_start, step_start + trace.update_time,
            step=trace.step,
        )
        sink.complete(
            "hpl/panel", "panel+dtrsm", step_start, step_start + trace.panel_time,
            step=trace.step,
        )
        sink.complete(
            "hpl/comm", "comm",
            step_start + trace.step_time - trace.comm_time,
            step_start + trace.step_time,
            step=trace.step,
        )
        metrics = telemetry.metrics
        metrics.counter("hpl.panels", "panel steps completed").inc()
        metrics.series("hpl.cum_gflops", "running GFLOPS vs virtual time").append(
            trace.cum_time, trace.cum_gflops
        )
        metrics.series("hpl.mean_gsplit", "grid-mean GSplit per panel").append(
            trace.step, trace.mean_gsplit
        )
        metrics.series("hpl.step_seconds", "per-panel step time").append(
            trace.step, trace.step_time
        )

    # -- the run -----------------------------------------------------------------------
    def run(
        self,
        n: int,
        collect_steps: bool = True,
        progress=None,
        telemetry=None,
    ) -> AnalyticResult:
        """Run one Linpack of order *n*; returns timing (no numerics).

        The single-point (B=1) call of :meth:`run_points`.  *progress*, if
        given, is called with each panel's :class:`StepTrace` as the
        factorization advances — the hook live dashboards and the Fig. 13
        progress bench use.  *telemetry* (:class:`repro.obs.Telemetry`)
        additionally records one span per panel on the virtual timeline
        (tracks ``hpl/update`` / ``hpl/panel`` / ``hpl/comm``) plus
        running-GFLOPS and mean-GSplit series.  Both hooks only read values
        the run already computes, so enabling them cannot change the result.
        """
        require_positive(n, "n")
        (result,) = self.run_points([(n, self.config.nb)], collect_steps, progress, telemetry)
        return result

    def run_points(
        self,
        points: Sequence[tuple[int, int]],
        collect_steps: bool = False,
        progress=None,
        telemetry=None,
    ) -> list[AnalyticResult]:
        """Run one Linpack per ``(n, nb)`` point, all in one panel loop.

        Step ``jb`` evaluates every point that still has a panel ``jb``:
        the trailing update (the :class:`UpdateModel`, the split and the
        makespan) runs once over a ``(B, P, Q)`` stack of those points,
        while each point's own bookkeeping — panel width, thermal drift,
        panel/DTRSM/broadcast/swap terms, elapsed time, the backsolve —
        stays in Python scalars.  Every stochastic draw (slow noise,
        adaptive measurement noise, Qilin training) depends only on the
        step index and the grid, never on N or NB, so one draw per step
        serves all points, and each point's result is bit-identical to its
        own single-point run.  Every call starts the RNG stream afresh, so
        a stepper answers the same question the same way every time.

        Fault injection, step traces and the *progress*/*telemetry* hooks
        need a single point: the injector follows one run's clock.
        """
        B = len(points)
        require(
            B == 1 or (
                self.faults is None and not collect_steps
                and progress is None and telemetry is None
            ),
            "batch mode does not support fault injection, step traces or hooks",
        )
        cfg = self.config
        grid, table, var = self.grid, self.table, self.var
        P, Q = grid.nprow, grid.npcol
        rng = RngStream(cfg.seed).child("analytic").generator()

        # Independent slowly-varying condition noise for the GPU (thermal
        # state) and the CPU side (OS/daemon activity, memory contention) of
        # each element.  Their *relative* drift is what staleness costs: a
        # split balanced for trained rates puts the slower-than-trained side
        # on the critical path, and "the end time is the last who finishes".
        gpu_noise = SlowNoise(grid.size, var.slow_noise_sigma, var.slow_noise_rho, rng)
        cpu_noise = SlowNoise(grid.size, var.slow_noise_sigma, var.slow_noise_rho, rng)
        meas_sigma = var.measurement_sigma

        gpu_base = self._grid_array(table.gpu_peak)
        drift_depth = self._grid_array(table.drift_depth)
        cpu_hybrid = self._grid_array(table.cpu_hybrid_rate)
        cpu_even = self._grid_array(table.cpu_hybrid_even_rate)
        cpu_full = self._grid_array(table.cpu_full_rate)
        initial_gsplit = self._grid_array(table.initial_gsplit)

        # Qilin: one training realisation, frozen for the whole run.
        if cfg.mapping == "qilin":
            train_noise = SlowNoise(
                grid.size, var.slow_noise_sigma, var.slow_noise_rho,
                RngStream(cfg.seed).child("qilin-train").generator(),
            )
            train_peak = gpu_base * self._grid_array(train_noise.factors())
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

        # Fault injection: one fresh injector per run replays the schedule
        # against this run's virtual clock (deterministic for a fixed spec
        # and seed).  None when no faults are configured — the hot loop then
        # carries no extra work at all.
        injector = (
            FaultInjector(self.faults, grid.size, seed=cfg.seed, telemetry=telemetry)
            if self.faults
            else None
        )

        # Per-point state and constants of the loop below.
        ns = [n for n, _ in points]
        nbs = [nb for _, nb in points]
        n_blocks = [-(-n // nb) for n, nb in points]
        total_rows = [_local_count(n, nb, P) for n, nb in points]
        total_cols = [_local_count(n, nb, Q) for n, nb in points]
        elapsed = [0.0] * B
        cum_flops = [0.0] * B
        steps: list[list[StepTrace]] = [[] for _ in points]
        trace_steps = collect_steps or progress is not None or telemetry is not None
        cpu_panel_rate = float(np.mean(cpu_hybrid)) * cfg.panel_efficiency
        log2P = math.ceil(math.log2(P)) if P > 1 else 0
        net_latency = self.net.latency if self.net else 0.0
        net_bandwidth = self.net.bandwidth if self.net else None
        live = list(range(B))

        for jb in range(max(n_blocks)):
            live = [i for i in live if jb < n_blocks[i]]
            # The point axis exists only while several points are live: a
            # single run keeps the grid's (P, Q) shape, which the update
            # model evaluates ~3% faster than a (1, P, Q) stack.
            lead = (len(live),) if len(live) > 1 else ()
            js = [jb * nbs[i] for i in live]
            jbws = [min(nbs[i], ns[i] - j) for i, j in zip(live, js)]
            gpu_noise.step()
            cpu_noise.step()
            gpu_slow = self._grid_array(gpu_noise.factors())
            cpu_slow = self._grid_array(cpu_noise.factors())
            if table.drift_tau > 0:
                warm = [1.0 - math.exp(-elapsed[i] / table.drift_tau) for i in live]
                drift = 1.0 - drift_depth * np.array(warm).reshape(lead + (1, 1))
            else:
                drift = 1.0 - drift_depth
            if injector is not None:
                injector.advance(elapsed[0])
                fault_gpu = self._grid_array(injector.gpu_factor())
                fault_cpu = self._grid_array(injector.cpu_factor())
                gpu_ok = self._grid_array(injector.gpu_alive()).astype(bool)
                xfer_factor = injector.transfer_inflation(elapsed[0])
            else:
                fault_gpu = fault_cpu = 1.0
                gpu_ok = None
                xfer_factor = 1.0
            peak_now = gpu_base * drift * gpu_slow * fault_gpu

            # Rows below the panel per grid row, trailing cols per grid col.
            m_loc = np.array([
                total_rows[i] - _first_local_at_or_after(j + jbw, nbs[i], P)
                for i, j, jbw in zip(live, js, jbws)
            ])
            n_loc = np.array([
                total_cols[i] - _first_local_at_or_after(j + jbw, nbs[i], Q)
                for i, j, jbw in zip(live, js, jbws)
            ])
            m_rows = m_loc.reshape(lead + (P, 1)).astype(float)
            n_cols = n_loc.reshape(lead + (1, Q)).astype(float)
            k = np.array(jbws, dtype=float).reshape(lead + (1, 1))
            model = UpdateModel(self, m_rows, n_cols, k, xfer_factor)

            # -- choose the split per mapping --------------------------------------
            if cfg.mapping == "cpu_only":
                gsplit = np.zeros((P, Q))
                cpu_rate = cpu_full * cpu_slow
            elif cfg.mapping == "gpu_only":
                gsplit = np.ones((P, Q))
                cpu_rate = cpu_hybrid * cpu_slow  # unused (no CPU share)
            elif cfg.mapping == "static":
                gsplit = initial_gsplit.copy()
                cpu_rate = cpu_even * cpu_slow
            elif cfg.mapping == "qilin":
                # Trained before the run, so blind to any PCIe fault.
                trained = model if xfer_factor == 1.0 else UpdateModel(self, m_rows, n_cols, k)
                gsplit = trained.balanced_split(train_peak, train_cpu)
                cpu_rate = cpu_even * cpu_slow
            else:  # adaptive: fresh (last-step) measurements, level-2 balanced
                cpu_rate = (cpu_hybrid if cfg.level2 else cpu_even) * cpu_slow
                if meas_sigma > 0:
                    mfac = np.exp(rng.normal(-0.5 * meas_sigma**2, meas_sigma, (2, P, Q)))
                else:
                    mfac = np.ones((2, P, Q))
                gsplit = model.balanced_split(peak_now * mfac[0], cpu_rate * mfac[1])

            # -- graceful degradation -------------------------------------------------
            # Stragglers hit every mapping (the hardware is simply slower);
            # GPU *loss* is where reaction matters: the adaptive mapping
            # clamps GSplit to 0 on dead elements and reclaims the transfer
            # core (the cpu_only_dgemm fallback, so the element runs at the
            # cpu_only configuration's rate), while static/Qilin/gpu_only
            # keep offloading into the failsafe-rate device.  The injector
            # is then told what split each element actually applied — the
            # feedback that lets a load-shedding mapping cool a throttled
            # GPU back to full clock.
            if injector is not None:
                cpu_rate = cpu_rate * fault_cpu
                if cfg.mapping == "adaptive" and not gpu_ok.all():
                    gsplit = np.where(gpu_ok, gsplit, 0.0)
                    cpu_rate = np.where(gpu_ok, cpu_rate, cpu_full * cpu_slow * fault_cpu)
                injector.note_load(np.broadcast_to(gsplit, (P, Q)).ravel(), elapsed[0])

            # -- the trailing update (slowest rank gates the step) ------------------
            makespan = model.makespan(gsplit, peak_now, cpu_rate)
            if cfg.endgame_cpu_fallback and cfg.mapping not in ("cpu_only",):
                # Future-work optimization: reclaim the transfer core and run
                # small updates on all four cores when that is faster.
                t_cpu_full = np.where(
                    model.w > 0, model.w / np.maximum(cpu_full * cpu_slow * fault_cpu, 1e-9), 0.0
                )
                makespan = np.minimum(makespan, t_cpu_full)
            t_updates = makespan.reshape(len(live), -1).max(axis=1).tolist()
            w_update_maxes = model.w.reshape(len(live), -1).max(axis=1).tolist()
            n_loc_maxes = n_loc.max(axis=1).tolist()

            for slot, i in enumerate(live):
                n, j, jbw = ns[i], js[slot], jbws[slot]
                t_update = t_updates[slot]
                # DTRSM (the U12 block row) runs through the same hybrid
                # engine as the update — it is BLAS3 of jbw^2 x n_loc flops,
                # ~NB/2M of the update, so charge it at the update's
                # effective hybrid rate.
                n_loc_max = n_loc_maxes[slot]
                hybrid_rate = (
                    w_update_maxes[slot] / t_update if t_update > 0 else float(np.mean(cpu_rate))
                )
                t_dtrsm = (jbw * jbw * n_loc_max) / max(hybrid_rate, 1e-9)

                # -- panel factorization + communication ----------------------------
                panel_rows_local = max(math.ceil((n - j) / P), jbw) if P > 1 else n - j
                t_panel = (panel_rows_local * jbw * jbw - jbw**3 / 3.0) / cpu_panel_rate
                if P > 1:
                    # pivot search allreduce per column of the panel
                    t_panel += jbw * self._alpha_beta(16.0, max(1, log2P))
                panel_bytes = panel_rows_local * jbw * DOUBLE_BYTES
                t_pbcast = panel_bcast_time(
                    cfg.bcast_algo, panel_bytes, Q, net_latency, net_bandwidth
                )
                swap_bytes = jbw * n_loc_max * DOUBLE_BYTES
                t_swap = self._alpha_beta(swap_bytes, 1) if P > 1 else 0.0
                t_ubcast = self._alpha_beta(jbw * n_loc_max * DOUBLE_BYTES, log2P)
                t_comm = t_pbcast + t_swap + t_ubcast
                if cfg.lookahead:
                    # Depth-1 look-ahead: next panel's factorization +
                    # broadcast proceed in the shadow of the current
                    # trailing update.  Only the next owner's copy gates the
                    # shadowed path (1rm delivers it in one message); the
                    # full broadcast still bounds the step.
                    t_pbcast_crit = panel_bcast_critical_time(
                        cfg.bcast_algo, panel_bytes, Q, net_latency, net_bandwidth
                    )
                    step_time = (
                        max(t_update + t_dtrsm, t_panel + t_pbcast_crit, t_pbcast)
                        + t_swap
                        + t_ubcast
                    )
                else:
                    step_time = t_panel + t_dtrsm + t_comm + t_update

                step_start = elapsed[i]
                elapsed[i] += step_time
                step_flops = (2.0 / 3.0) * ((n - j) ** 3 - (n - j - jbw) ** 3)
                cum_flops[i] += step_flops
                if trace_steps:
                    trace = StepTrace(
                        step=jb,
                        j=j,
                        trailing=n - j - jbw,
                        step_time=step_time,
                        update_time=t_update,
                        panel_time=t_panel + t_dtrsm,
                        comm_time=t_comm,
                        flops=step_flops,
                        cum_time=elapsed[i],
                        cum_flops=cum_flops[i],
                        mean_gsplit=float(np.mean(gsplit)),
                    )
                    if collect_steps:
                        steps[i].append(trace)
                    if progress is not None:
                        progress(trace)
                    if telemetry is not None:
                        self._publish_step(telemetry, trace, step_start)

        # Back-substitution: 2 N^2 flops spread over the grid, CPU-bound.
        solve_rate = float(np.mean(cpu_full if cfg.mapping == "cpu_only" else cpu_hybrid))
        results = []
        for i, (n, nb) in enumerate(points):
            elapsed[i] += 2.0 * n * n / (grid.size * solve_rate) + self._alpha_beta(
                n * DOUBLE_BYTES, 2 * (P + Q)
            )
            results.append(AnalyticResult(
                n=n,
                grid=(P, Q),
                config=cfg if nb == cfg.nb else replace(cfg, nb=nb),
                elapsed=elapsed[i],
                flops=lu_flops(n),
                steps=steps[i],
                degraded=injector.degraded_mode() if injector is not None else None,
            ))
        if telemetry is not None:
            # Final figures match AnalyticResult exactly (backsolve included).
            result = results[0]
            telemetry.metrics.gauge("hpl.elapsed_seconds", "virtual run time").set(result.elapsed)
            telemetry.metrics.gauge("hpl.gflops", "HPL figure of merit").set(result.gflops)
        return results
