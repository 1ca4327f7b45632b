"""Execution policy: how many workers, whether results are cached.

The sweep generators in :mod:`repro.bench` and the differential matrix in
:mod:`repro.verify` are embarrassingly parallel — independent scenarios with
explicit seeds — but they must stay *deterministic*: the same invocation
yields the same figures whether it ran on one core or sixteen.  The policy
object is how callers opt into parallelism and caching without threading
flags through every generator:

* The **default policy** (no ambient policy installed) is serial with the
  cache off — library and test behaviour is byte-identical to a plain loop.
* The bench/verify **CLIs** install a policy built from ``--jobs`` /
  ``--no-cache`` around the whole figure, so every sweep inside picks it up
  ambiently (the same pattern as :func:`repro.obs.use`).

:class:`ExecStats` counts what actually happened (tasks run, tasks that went
through the pool, cache hits/misses) for the CLI's one-line summary; the
same counts are mirrored into the ambient :mod:`repro.obs` metrics registry
(``exec.tasks``, ``exec.parallel_tasks``, ``exec.cache.hits``,
``exec.cache.misses``) when telemetry is active, so tests and ``--metrics-out``
can assert on them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from repro import obs

#: Where cached scenario results live unless the policy overrides it.
DEFAULT_CACHE_DIR = Path("benchmarks") / "out" / "cache"


@dataclass
class ExecStats:
    """Counters for one policy's lifetime (the CLI summary line)."""

    tasks: int = 0
    parallel_tasks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def count_task(self, parallel: bool) -> None:
        self.tasks += 1
        if parallel:
            self.parallel_tasks += 1
        telemetry = obs.current()
        if telemetry is not None:
            telemetry.metrics.counter("exec.tasks", "scenario evaluations dispatched").inc()
            if parallel:
                telemetry.metrics.counter(
                    "exec.parallel_tasks", "evaluations run in worker processes"
                ).inc()

    def count_cache(self, hit: bool) -> None:
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        telemetry = obs.current()
        if telemetry is not None:
            name = "exec.cache.hits" if hit else "exec.cache.misses"
            help_ = (
                "scenario evaluations served from the result cache"
                if hit
                else "scenario evaluations that had to run"
            )
            telemetry.metrics.counter(name, help_).inc()

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of cache lookups served without recomputation."""
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0

    def summary_line(self, jobs: int, cache: bool) -> str:
        """The CLI's one-liner: jobs, cache state, hit counts."""
        if cache:
            cache_part = (
                f"cache=on hits={self.cache_hits} misses={self.cache_misses}"
                + (f" ({self.hit_rate:.0%} hit)" if self.cache_lookups else "")
            )
        else:
            cache_part = "cache=off"
        return (
            f"exec: jobs={jobs} {cache_part} "
            f"tasks={self.tasks} (parallel {self.parallel_tasks})"
        )


@dataclass(frozen=True)
class ExecutionPolicy:
    """One sweep-execution configuration.

    ``jobs=None`` resolves to ``os.cpu_count()``; ``jobs=1`` forces the
    serial path (no pool, no subprocesses).  ``cache`` gates the on-disk
    result cache; ``vectorize`` runs size sweeps as one batch of points in
    a single panel loop (bit-identical to per-point runs, so it changes wall
    time only).  ``stats`` is shared by everything executed under this
    policy.
    """

    jobs: Optional[int] = 1
    cache: bool = False
    cache_dir: Optional[Path] = None
    vectorize: bool = False
    stats: ExecStats = field(default_factory=ExecStats, compare=False)

    @property
    def resolved_jobs(self) -> int:
        if self.jobs is None:
            return os.cpu_count() or 1
        return max(1, int(self.jobs))

    @property
    def resolved_cache_dir(self) -> Path:
        return Path(self.cache_dir) if self.cache_dir is not None else DEFAULT_CACHE_DIR

    def summary_line(self) -> str:
        return self.stats.summary_line(self.resolved_jobs, self.cache)


#: The do-nothing-special policy: serial, uncached, scalar oracle.
SERIAL_POLICY = ExecutionPolicy()

_STACK: list[ExecutionPolicy] = []


def current() -> ExecutionPolicy:
    """The innermost active policy (the serial default when none is set)."""
    return _STACK[-1] if _STACK else SERIAL_POLICY


@contextmanager
def use(policy: Optional[ExecutionPolicy]) -> Iterator[ExecutionPolicy]:
    """Install *policy* as the ambient execution policy for the duration.

    ``use(None)`` is a no-op context yielding the current policy, so call
    sites can wrap unconditionally.
    """
    if policy is None:
        yield current()
        return
    _STACK.append(policy)
    try:
        yield policy
    finally:
        _STACK.pop()
