"""run_tasks / evaluate_points: ordering, determinism, serial fallbacks."""

from __future__ import annotations

import pytest

from repro import obs
from repro.exec import ExecutionPolicy, evaluate_points, run_tasks, use
from repro.exec import pool as pool_mod
from repro.obs.ledger import RunLedger, load_run
from repro.util.rng import RngStream


def square_plus(x: int, offset: int = 0) -> int:
    return x * x + offset


def traced_square(x: int) -> int:
    """Emits a span + counter through the ambient telemetry (worker-side)."""
    telemetry = obs.current()
    if telemetry is not None:
        telemetry.sink.complete("task", f"x{x}", float(x), float(x) + 1.0)
        telemetry.metrics.counter("tasks_run").inc()
    return x * x


def seeded_draw(seed: int) -> float:
    """Deterministic per-task value from the task's own seed."""
    return float(RngStream(seed).child("task").generator().random())


def boom(x: int) -> int:
    raise ValueError(f"boom {x}")


def nested_square(x: int) -> tuple[list[int], bool, int]:
    """Calls run_tasks with jobs=2 from wherever it runs (a worker, here)."""
    policy = ExecutionPolicy(jobs=2)
    results = run_tasks(square_plus, [dict(x=x), dict(x=x + 1)], policy=policy)
    return results, pool_mod.in_worker(), policy.stats.parallel_tasks


class TestRunTasks:
    def test_empty(self):
        assert run_tasks(square_plus, []) == []

    def test_serial_order(self):
        calls = [dict(x=x) for x in range(8)]
        assert run_tasks(square_plus, calls) == [x * x for x in range(8)]

    def test_parallel_order_matches_serial(self):
        calls = [dict(x=x, offset=1) for x in range(16)]
        serial = run_tasks(square_plus, calls, policy=ExecutionPolicy(jobs=1))
        parallel = run_tasks(square_plus, calls, policy=ExecutionPolicy(jobs=2))
        assert parallel == serial == [x * x + 1 for x in range(16)]

    def test_parallel_seeded_draws_bit_identical(self):
        calls = [dict(seed=s) for s in range(12)]
        serial = run_tasks(seeded_draw, calls, policy=ExecutionPolicy(jobs=1))
        parallel = run_tasks(seeded_draw, calls, policy=ExecutionPolicy(jobs=2))
        assert parallel == serial  # float equality on purpose: bit-identity

    def test_exception_propagates(self):
        with pytest.raises(ValueError, match="boom 0"):
            run_tasks(boom, [dict(x=0), dict(x=1)], policy=ExecutionPolicy(jobs=1))
        with pytest.raises(ValueError, match="boom"):
            run_tasks(boom, [dict(x=0), dict(x=1)], policy=ExecutionPolicy(jobs=2))

    def test_counts_tasks(self):
        policy = ExecutionPolicy(jobs=1)
        run_tasks(square_plus, [dict(x=1), dict(x=2)], policy=policy)
        assert policy.stats.tasks == 2
        assert policy.stats.parallel_tasks == 0

    def test_parallel_counts_parallel_tasks(self):
        policy = ExecutionPolicy(jobs=2)
        run_tasks(square_plus, [dict(x=1), dict(x=2)], policy=policy)
        assert policy.stats.parallel_tasks == 2

    def test_in_memory_telemetry_forces_serial(self):
        # A plain RecordingSink has no shard_dir: worker spans could not be
        # merged back, so the pool falls back to the serial path (not a drop).
        policy = ExecutionPolicy(jobs=4)
        with obs.use(obs.Telemetry()):
            result = run_tasks(square_plus, [dict(x=x) for x in range(4)], policy=policy)
        assert result == [0, 1, 4, 9]
        assert policy.stats.tasks == 4
        assert policy.stats.parallel_tasks == 0  # spans/metrics cannot merge back

    def test_shard_backed_telemetry_stays_parallel(self, tmp_path):
        ledger = RunLedger.open(
            "pool-test", root=tmp_path / "runs",
            flush_records=1, flush_interval=None, fsync=False,
        )
        policy = ExecutionPolicy(jobs=2)
        with obs.use(ledger.telemetry):
            result = run_tasks(
                traced_square, [dict(x=x) for x in range(4)], policy=policy
            )
        assert result == [0, 1, 4, 9]
        assert policy.stats.parallel_tasks == 4  # no serial fallback

        shards = ledger.worker_shards()
        assert shards  # workers streamed their spans into the run directory
        counted = ledger.telemetry.metrics.scalar_summary()["exec.telemetry_shards"]
        assert counted == len(shards)

        ledger.finish()
        view = load_run(ledger.directory)
        worker_spans = [s for s in view.spans if s.track.startswith("worker-")]
        assert sorted(s.name for s in worker_spans) == ["x0", "x1", "x2", "x3"]
        assert view.worker_metrics  # metrics-worker-<pid>.json snapshots parsed
        assert any(
            "tasks_run" in snapshot for snapshot in view.worker_metrics.values()
        )

    def test_shard_counter_not_double_counted(self, tmp_path):
        ledger = RunLedger.open(
            "pool-recount", root=tmp_path / "runs",
            flush_records=1, flush_interval=None, fsync=False,
        )
        policy = ExecutionPolicy(jobs=2)
        with obs.use(ledger.telemetry):
            run_tasks(traced_square, [dict(x=1), dict(x=2)], policy=policy)
            first = ledger.telemetry.metrics.scalar_summary()["exec.telemetry_shards"]
            run_tasks(traced_square, [dict(x=3), dict(x=4)], policy=policy)
            second = ledger.telemetry.metrics.scalar_summary()["exec.telemetry_shards"]
        # Only shards that newly appeared are counted on the second join.
        assert second == len(ledger.worker_shards())
        assert second >= first
        ledger.finish()

    def test_in_worker_forces_serial(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_IN_WORKER", True)
        policy = ExecutionPolicy(jobs=4)
        assert run_tasks(square_plus, [dict(x=3)], policy=policy) == [9]
        assert policy.stats.parallel_tasks == 0

    def test_real_pool_never_nests(self):
        # No monkeypatch: the WorkerPool initializer itself must mark each
        # worker, so the inner jobs=2 batch runs serially inside it.
        calls = [dict(x=x) for x in range(3)]
        out = run_tasks(nested_square, calls, policy=ExecutionPolicy(jobs=2))
        assert out == [([x * x, (x + 1) * (x + 1)], True, 0) for x in range(3)]

    def test_single_call_stays_serial(self):
        policy = ExecutionPolicy(jobs=4)
        run_tasks(square_plus, [dict(x=2)], policy=policy)
        assert policy.stats.parallel_tasks == 0  # jobs clamped to len(calls)


class TestEvaluatePoints:
    def test_no_cache_degrades_to_run_tasks(self):
        policy = ExecutionPolicy(jobs=1, cache=False)
        out = evaluate_points("t", square_plus, [dict(x=2)], policy=policy)
        assert out == [4]
        assert policy.stats.cache_lookups == 0

    def test_miss_then_hit(self, tmp_path):
        points = [dict(x=x) for x in range(5)]
        cold = ExecutionPolicy(jobs=1, cache=True, cache_dir=tmp_path)
        first = evaluate_points("t", square_plus, points, policy=cold)
        assert cold.stats.cache_misses == 5 and cold.stats.cache_hits == 0

        warm = ExecutionPolicy(jobs=1, cache=True, cache_dir=tmp_path)
        second = evaluate_points("t", square_plus, points, policy=warm)
        assert second == first == [x * x for x in range(5)]
        assert warm.stats.cache_hits == 5 and warm.stats.cache_misses == 0
        assert warm.stats.tasks == 0  # nothing re-ran

    def test_partial_hits_preserve_order(self, tmp_path):
        policy = ExecutionPolicy(jobs=1, cache=True, cache_dir=tmp_path)
        evaluate_points("t", square_plus, [dict(x=1), dict(x=3)], policy=policy)
        out = evaluate_points(
            "t", square_plus, [dict(x=x) for x in range(5)], policy=policy
        )
        assert out == [0, 1, 4, 9, 16]

    def test_ambient_policy_via_use(self, tmp_path):
        policy = ExecutionPolicy(jobs=1, cache=True, cache_dir=tmp_path)
        with use(policy):
            evaluate_points("t", square_plus, [dict(x=7)])
            evaluate_points("t", square_plus, [dict(x=7)])
        assert policy.stats.cache_hits == 1
        assert policy.stats.cache_misses == 1
