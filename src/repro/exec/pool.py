"""The worker pool, the deterministic fan-out runner and the sweep combinator.

:func:`run_tasks` maps a top-level callable over a list of keyword-argument
dicts, serially or across a :class:`WorkerPool` — the only place in the
package that builds a process pool.  Determinism is the contract, not
an accident:

* **Ordering** — results come back in submission order regardless of which
  worker finished first, so a sweep's series are identical serial vs
  parallel.
* **Seeding** — tasks carry their seeds *in their arguments* (every
  :class:`~repro.session.Scenario` already does); workers never draw from
  shared RNG state.  :func:`repro.util.rng.derive_seed` derives stable
  per-task sub-seeds when a caller needs to split one seed across tasks.
* **Serial equivalence** — a worker process runs the same function on the
  same arguments as the serial loop would, so parallel output is
  bit-identical to serial output (asserted by ``benchmarks/bench_perf.py
  --check`` and the CI bench-smoke lane).

Telemetry in workers: when the ambient :class:`repro.obs.Telemetry` is
ledger-backed (``shard_dir`` set — see :class:`repro.obs.ledger.RunLedger`),
each worker process streams its spans into its own
``spans-worker-<pid>.jsonl`` shard in that directory and snapshots its
metrics to ``metrics-worker-<pid>.json``; the parent counts the shards into
``exec.telemetry_shards`` on join so a missing shard is visible, and the
ledger reader merges them back with worker labels.  Only a purely
in-memory telemetry (a :class:`~repro.obs.RecordingSink` with nowhere to
shard to) still forces the serial path — worker spans could not be merged
back, and dropping them silently would make ``--trace-out`` lie.  Running
*inside* a worker forces serial too (no nested pools).

:func:`evaluate_points` layers the result cache on top: look up every point,
fan the misses out, store what came back.  Cached values must round-trip
JSON; see :mod:`repro.exec.cache`.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro import obs
from repro.exec.cache import ResultCache, scenario_key
from repro.exec.policy import ExecutionPolicy, current

_IN_WORKER = False


def in_worker() -> bool:
    """True inside a pool worker process (nested pools are forbidden)."""
    return _IN_WORKER

#: The worker's own telemetry, created once per (process, shard_dir).
_WORKER_TELEMETRY: Optional[tuple[str, "obs.Telemetry"]] = None

#: Shard files this process has already counted into ``exec.telemetry_shards``.
_SEEN_SHARDS: set[str] = set()


def _mark_worker() -> None:
    """Pool initializer: workers must never spawn pools of their own."""
    global _IN_WORKER
    _IN_WORKER = True


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits the imported package); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_telemetry(shard_dir: str) -> "obs.Telemetry":
    """This worker's shard-backed telemetry (one stream per process).

    ``fsync`` is off for worker shards — the parent outlives them and a
    worker death loses at most one unflushed buffer, while a syscall per
    flush on every worker would tax exactly the hot path the pool exists
    to speed up.
    """
    global _WORKER_TELEMETRY
    if _WORKER_TELEMETRY is None or _WORKER_TELEMETRY[0] != shard_dir:
        from repro.obs.stream import StreamingSink

        sink = StreamingSink(
            Path(shard_dir) / f"spans-worker-{os.getpid()}.jsonl",
            flush_records=64,
            flush_interval=1.0,
            fsync=False,
        )
        _WORKER_TELEMETRY = (shard_dir, obs.Telemetry(sink=sink))
    return _WORKER_TELEMETRY[1]


def _run_sharded(fn: Callable[..., Any], shard_dir: str, kwargs: dict) -> Any:
    """Worker-side wrapper: run *fn* under this worker's shard telemetry."""
    from repro.util.io import atomic_write_text

    telemetry = _worker_telemetry(shard_dir)
    with obs.use(telemetry):
        result = fn(**kwargs)
    telemetry.flush()
    atomic_write_text(
        Path(shard_dir) / f"metrics-worker-{os.getpid()}.json",
        telemetry.metrics.to_json() + "\n",
    )
    return result


def _register_shards(telemetry: "obs.Telemetry", shard_dir: Path) -> int:
    """Count newly appeared worker shards into ``exec.telemetry_shards``.

    Always touches the counter (even by zero) so "no shards arrived" shows
    up as an explicit 0 in the snapshot instead of a missing metric.
    """
    shards = sorted(str(p) for p in Path(shard_dir).glob("spans-worker-*.jsonl"))
    fresh = [s for s in shards if s not in _SEEN_SHARDS]
    _SEEN_SHARDS.update(fresh)
    telemetry.metrics.counter(
        "exec.telemetry_shards", "per-worker span shards written into the run ledger"
    ).inc(len(fresh))
    return len(shards)


class WorkerPool:
    """The one process pool: every fan-out in the package runs through it.

    :func:`run_tasks` opens one per parallel batch and collects the futures
    in submission order; :class:`repro.session.runtime.AsyncSession` keeps
    one alive across thousands of submissions and drives it one job at a
    time as its fair-share scheduler grants slots.  Either way the executor
    uses the fork-preferring context and the never-nest initializer.

    ``serial=True`` (or running inside a pool worker, where nesting is
    forbidden) degrades to inline execution: :meth:`submit` runs the
    callable immediately in the caller's process and returns an
    already-completed future.  Callers therefore never distinguish the two
    modes — but note that in serial mode a job can never be observed
    *running*, only *finished*, which is exactly why a cancel on the serial
    path must be a no-op completion rather than a hang.

    :meth:`shutdown` (also on leaving a ``with`` block) cancels the futures
    still queued: when one task of a :func:`run_tasks` batch raises, the
    tasks not yet started are dropped, and the original exception still
    propagates to the caller.
    """

    def __init__(self, jobs: Optional[int] = None, *, serial: Optional[bool] = None) -> None:
        resolved = os.cpu_count() or 1 if jobs is None else max(1, int(jobs))
        if serial is None:
            serial = resolved <= 1 or _IN_WORKER
        self.size = 1 if serial else resolved
        self._executor: Optional[ProcessPoolExecutor] = None
        if not serial:
            self._executor = ProcessPoolExecutor(
                max_workers=self.size,
                mp_context=_pool_context(),
                initializer=_mark_worker,
            )
        self._closed = False

    @property
    def serial(self) -> bool:
        """True when submissions run inline in the caller's process."""
        return self._executor is None

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> "Future[Any]":
        """Run ``fn(*args, **kwargs)`` on a worker (or inline when serial).

        Always returns a :class:`concurrent.futures.Future`; on the serial
        path it is already resolved by the time it is returned.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self._executor is not None:
            return self._executor.submit(fn, *args, **kwargs)
        future: "Future[Any]" = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as error:  # noqa: BLE001 - mirrored into the future
            future.set_exception(error)
        return future

    def shutdown(self, wait: bool = True) -> None:
        """Tear the executor down, cancelling queued futures.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


def run_tasks(
    fn: Callable[..., Any],
    calls: Sequence[dict],
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> list[Any]:
    """Evaluate ``fn(**call)`` for every call, in order; maybe in parallel.

    *fn* must be a module-level (picklable) callable and every value in the
    call dicts must be picklable.  The result list is ordered like *calls*.
    A failure in any task propagates as the original exception; the
    parallel path then cancels the tasks still queued (see
    :class:`WorkerPool`).
    """
    policy = policy if policy is not None else current()
    calls = list(calls)
    if not calls:
        return []
    jobs = min(policy.resolved_jobs, len(calls))
    telemetry = obs.current()
    shard_dir = telemetry.shard_dir if telemetry is not None else None
    parallel = (
        jobs > 1 and not _IN_WORKER and (telemetry is None or shard_dir is not None)
    )
    for _ in calls:
        policy.stats.count_task(parallel)
    if not parallel:
        return [fn(**kwargs) for kwargs in calls]
    if telemetry is not None:
        # Flush the parent stream before forking so the child never holds
        # (or replays) buffered parent records.
        telemetry.flush()
    with WorkerPool(jobs) as pool:
        if shard_dir is not None:
            futures = [
                pool.submit(_run_sharded, fn, str(shard_dir), kwargs) for kwargs in calls
            ]
        else:
            futures = [pool.submit(fn, **kwargs) for kwargs in calls]
        results = [future.result() for future in futures]
    if shard_dir is not None:
        _register_shards(telemetry, shard_dir)
    return results


def evaluate_points(
    task: str,
    fn: Callable[..., Any],
    points: Sequence[dict],
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> list[Any]:
    """Cache-aware sweep: serve hits from disk, fan the misses out, store.

    *task* names the evaluation for the cache key (changing what *fn*
    computes without renaming it is already covered by the code-version
    digest).  When the policy's cache is off this degrades to
    :func:`run_tasks`.  Results are ordered like *points* either way.
    """
    policy = policy if policy is not None else current()
    points = list(points)
    if not policy.cache:
        return run_tasks(fn, points, policy=policy)
    cache = ResultCache(policy.resolved_cache_dir)
    results: list[Any] = [None] * len(points)
    missing: list[tuple[int, str, dict]] = []
    for i, point in enumerate(points):
        key = scenario_key(task, point)
        hit, value = cache.get(key)
        policy.stats.count_cache(hit)
        if hit:
            results[i] = value
        else:
            missing.append((i, key, point))
    if missing:
        computed = run_tasks(fn, [point for _, _, point in missing], policy=policy)
        for (i, key, point), value in zip(missing, computed):
            results[i] = value
            cache.put(key, value, task=task, args=point)
    return results
