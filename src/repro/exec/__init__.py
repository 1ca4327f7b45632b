"""Parallel, cached, deterministic sweep execution.

The layer between "one scenario" (:mod:`repro.session`) and "a figure's
worth of scenarios" (:mod:`repro.bench`, :mod:`repro.verify`):

* :class:`ExecutionPolicy` + :func:`use`/:func:`current` — the ambient
  jobs/cache/vectorize configuration (serial and uncached by default; the
  CLIs install a real policy from ``--jobs``/``--no-cache``).
* :func:`run_tasks` — ordered, deterministic fan-out: a plain loop when
  serial, one :class:`WorkerPool` per batch when parallel.
* :class:`WorkerPool` / :func:`in_worker` — the one process pool (fork
  context, never-nest initializer); :func:`run_tasks` opens one per batch
  and the async session runtime (:mod:`repro.session.runtime`) keeps one
  alive across thousands of submissions.
* :func:`evaluate_points` — the cache-aware sweep combinator.
* :class:`ResultCache` / :func:`scenario_key` / :func:`code_version` — the
  content-addressed on-disk result store under ``benchmarks/out/cache/``.

See ``docs/performance.md`` for cache-key semantics and the parallel
determinism guarantees.
"""

from repro.exec.cache import ResultCache, canonical_json, code_version, scenario_key
from repro.exec.policy import (
    DEFAULT_CACHE_DIR,
    ExecStats,
    ExecutionPolicy,
    SERIAL_POLICY,
    current,
    use,
)
from repro.exec.pool import WorkerPool, evaluate_points, in_worker, run_tasks

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ExecStats",
    "ExecutionPolicy",
    "SERIAL_POLICY",
    "ResultCache",
    "WorkerPool",
    "canonical_json",
    "code_version",
    "current",
    "evaluate_points",
    "in_worker",
    "run_tasks",
    "scenario_key",
    "use",
]
