"""Shared pieces of the benchmark: the metric schema, statistics, host
metadata, the checkout sandbox and the set-up probe.

Metric kinds follow hpcbench's unit-typed schema (``Metrics.Second``,
``Metrics.Flops``, ``Metrics.Cardinal`` ...): every metric the benchmark
prints is declared once in :data:`END_TO_END` or :data:`PER_LAYER` with a
kind, and the kind fixes its unit and which direction is better.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

#: The checkout root (the directory the benchmark is run from).
ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Scratch space for caches and temp files, inside the checkout.
WORK = ROOT / ".perfbench_work"
REFERENCE_FILE = HERE / "reference.json"


@dataclass(frozen=True)
class Kind:
    """A metric kind: its unit and which direction is better."""

    unit: str
    better: str  # "lower" | "higher" | "none"


class Metrics:
    """hpcbench-style unit-typed metric kinds.

    A count, a byte total or a ratio has no better direction of its own;
    each metric of those kinds names one.
    """

    Second = Kind("s", "lower")
    Millisecond = Kind("ms", "lower")
    Microsecond = Kind("us", "lower")
    Megabyte = Kind("MB", "lower")
    Rate = Kind("1/s", "higher")
    Cardinal = Kind("count", "")
    Bytes = Kind("bytes", "")
    Ratio = Kind("ratio", "")


@dataclass(frozen=True)
class Metric:
    name: str
    kind: Kind
    doc: str
    bound: Optional[float] = None
    better: str = ""

    def __post_init__(self) -> None:
        if not self.better:
            object.__setattr__(self, "better", self.kind.better)
        if self.better not in ("lower", "higher"):
            raise ValueError(f"metric {self.name} needs better='lower' or 'higher'")

    @property
    def unit(self) -> str:
        return self.kind.unit


#: What a user of the system sees.  Every workload prints every one of
#: these; the per-workload meaning is in README.md.  Timings are medians
#: unless the doc names a percentile; the sample count of each is printed
#: on the details line.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", Metrics.Second,
           "fresh interpreter: import + prepare inputs; median of 5", 0.25),
    Metric("peak_rss_mb", Metrics.Megabyte, "peak RSS of the benchmark process", 0.10),
    Metric("wait_s", Metrics.Second,
           "what a user waits for: paper = suite wall; des-grid = one pass of "
           "the three grid cells (median of passes); whatif = warm answer p50 "
           "at the reference rate, from due time", 0.25),
    Metric("cell_s", Metrics.Second,
           "one heavy cold cell: paper = 80-cabinet N=2.24M session run "
           "(median); des-grid = the 16x16 cell (median); whatif = cold "
           "answer p50 at the reference rate, from due time", 0.25),
    Metric("rate_per_s", Metrics.Rate,
           "engine throughput: paper = analytic panel steps per second inside "
           "the stepper; des-grid = DES events per second inside "
           "DistributedLU.factor; whatif = warm answers per second with 64 "
           "in flight beside the cold stream", 0.25),
)

_S, _MS, _US, _N = Metrics.Second, Metrics.Millisecond, Metrics.Microsecond, Metrics.Cardinal

#: Single-layer metrics, printed by the traced run (``--trace 1``).  A
#: layer's ``self_s`` is its share of the traced wall time; see tracing.py.
PER_LAYER: tuple[Metric, ...] = (
    Metric("hpl.analytic_run_s", _S, "time inside AnalyticHpl.run / hpl.batch.run_batch"),
    Metric("hpl.analytic_runs", _N, "analytic Linpack runs (batch points counted singly)", better="lower"),
    Metric("hpl.panel_steps", _N, "analytic panel steps, ceil(n/nb) per run (exact)", better="lower"),
    Metric("hpl.self_s", _S, "self time of repro.hpl outside dist.py (stepper, batch, grid, solve)"),
    Metric("hpl.dist_self_s", _S, "self time of repro/hpl/dist.py (the DES LU ranks)"),
    Metric("sched.self_s", _S, "self time of repro.sched"),
    Metric("machine.self_s", _S, "self time of repro.machine + repro.model"),
    Metric("core.self_s", _S, "self time of repro.core + repro.blas"),
    Metric("sim.events", _N, "DES events processed (exact)", better="lower"),
    Metric("sim.self_s", _S, "self time of repro.sim"),
    Metric("sim.events_per_s", Metrics.Rate, "sim.events / sim.self_s"),
    Metric("sim.max_queue_depth", _N, "largest calendar depth of any factor run", better="lower"),
    Metric("sim.calendar_resizes", _N, "calendar bucket-width changes (exact)", better="lower"),
    Metric("mpi.messages", _N, "simulated MPI messages, from FactorResult (exact)", better="lower"),
    Metric("mpi.bytes", Metrics.Bytes, "simulated MPI bytes, from FactorResult (exact)", better="lower"),
    Metric("mpi.self_s", _S, "self time of repro.mpi"),
    Metric("mpi.us_per_message", _US, "mpi.self_s per simulated message"),
    Metric("exec.tasks", _N, "scenario evaluations dispatched", better="lower"),
    Metric("exec.cache_hits", _N, "result-cache hits", better="higher"),
    Metric("exec.cache_misses", _N, "result-cache misses", better="lower"),
    Metric("exec.hit_rate", Metrics.Ratio, "hits / lookups", better="higher"),
    Metric("exec.cache_get_ms", _MS, "mean wall per ResultCache.get"),
    Metric("exec.cache_put_ms", _MS, "mean wall per ResultCache.put"),
    Metric("exec.pool_wait_ms", _MS, "median wall from WorkerPool.submit to its future's completion"),
    Metric("exec.evaluate_self_s", _S, "evaluate_points span time minus its child spans"),
    Metric("exec.self_s", _S, "self time of repro.exec"),
    Metric("session.submitted", _N, "AsyncSession.submit calls", better="lower"),
    Metric("session.admission_wait_ms", _MS, "median wall from AsyncSession.submit to pool dispatch (0 when a slot is free)"),
    Metric("session.failed", _N, "session jobs that failed", better="lower"),
    Metric("session.run_s", _S, "time inside Session.run"),
    Metric("session.self_s", _S, "self time of repro.session"),
    Metric("campaign.answer_self_ms", _MS, "self time of WhatIfService.answer per query"),
    Metric("campaign.warm_ratio", Metrics.Ratio, "warm answers / queries", better="higher"),
    Metric("campaign.normalize_calls", _N, "normalize_query calls", better="lower"),
    Metric("campaign.coalesced", _N, "queries coalesced onto in-flight work", better="higher"),
    Metric("campaign.rejected", _N, "queries rejected at admission (503)", better="lower"),
    Metric("campaign.rate_limited", _N, "queries rate limited (429)", better="lower"),
    Metric("campaign.memo_entries", _N, "bodies held in the service memo at the end", better="lower"),
    Metric("campaign.self_s", _S, "self time of repro.campaign"),
    Metric("bench.self_s", _S, "self time of repro.bench"),
    Metric("verify.self_s", _S, "self time of repro.verify"),
    Metric("other_repro.self_s", _S, "self time of the remaining repro packages (obs, util, faults)"),
    Metric("gen.self_s", _S, "self time of the benchmark's own code (workload loop, load generator)"),
    Metric("gen.late_p99_ms", _MS, "p99 of how late the generator sent requests"),
    Metric("whatif.warm_p50_ms", _MS, "warm answer p50 at the reference rate, from due time"),
    Metric("whatif.warm_p99_ms", _MS, "warm answer p99 at the reference rate, from due time"),
    Metric("whatif.backlog_end", _N, "median warm backlog over the reference rung's second half", better="lower"),
    Metric("whatif.max_qps", Metrics.Rate,
           "highest open-loop ladder rate whose warm p99 meets the latency limit "
           "and whose backlog does not grow"),
    Metric("loop.self_s", _S, "asyncio event-loop dispatch and transport time"),
    Metric("idle.self_s", _S, "time blocked waiting (poll, sleep)"),
    Metric("trace.wall_s", _S, "wall time of the traced region"),
    Metric("trace.unattributed_s", _S, "traced wall minus every attributed self time"),
    Metric("obs.tracing_overhead", Metrics.Ratio, "traced wall / untraced wall - 1 on the same unit of work", better="lower"),
)


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of *values*; inf-safe."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- results -------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run produced, before printing."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; record *what* if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def host_metadata(seed: int) -> dict[str, Any]:
    import numpy

    from repro.exec import code_version

    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "code_version": code_version(),
        "seed": seed,
    }


def load_reference() -> dict[str, Any]:
    return json.loads(REFERENCE_FILE.read_text())


# -- sandbox and set-up --------------------------------------------------------


def require_checkout() -> None:
    """Refuse to run anywhere but a checkout holding the program's source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/repro under {ROOT}; run from the repository root")
    sys.path.insert(0, str(SRC))


def enter_workdir(name: str) -> Path:
    """A fresh scratch directory inside the checkout; temp files go there too."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    os.environ["TMPDIR"] = str(path)
    tempfile.tempdir = str(path)
    return path


def leave_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()  # only when no other run is using it
    except OSError:
        pass


def measure_setup(workload: str, seed: int, repeats: int = 5) -> tuple[float, list[float]]:
    """Median wall of *repeats* fresh interpreters running the workload's set-up."""
    script = HERE / "run.py"
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(script), "--setup-probe", workload, "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        samples.append(time.perf_counter() - started)
    return median(samples), samples
