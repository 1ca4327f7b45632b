"""``python -m repro.obs`` subcommands and the perf-regression sentinel."""

from __future__ import annotations

import json

import pytest

from repro.obs import RunLedger, history
from repro.obs.cli import main


@pytest.fixture
def run_pair(tmp_path):
    """Two finished ledgers under one root, with distinct metric values."""
    root = tmp_path / "runs"
    ledgers = {}
    for run_id, panels in (("run-a", 10), ("run-b", 15)):
        ledger = RunLedger.open(
            "fig9", root=root, run_id=run_id,
            flush_records=1, flush_interval=None, fsync=False,
        )
        ledger.telemetry.metrics.counter("panels").inc(panels)
        ledger.sink.complete("hpl/panel", "p0", 0.0, 1.0, n=panels)
        ledger.sink.instant("hpl/panel", "tick", 0.5)
        ledger.finish({"gflops": float(panels)})
        ledgers[run_id] = ledger
    return root, ledgers


def _entry(wall, *, quick=True, cpus=8, eps=200_000.0, sweep=2.0):
    return {
        "wall_unix": wall,
        "quick": quick,
        "jobs": None,
        "cpu_count": cpus,
        "code_version": "abc",
        "metrics": {
            "des_engine.scalar_events_per_second": eps,
            "fig9_sweep.serial_seconds": sweep,
        },
    }


class TestLedgerCommands:
    def test_list_shows_both_runs(self, run_pair, capsys):
        root, _ = run_pair
        assert main(["--root", str(root), "list"]) == 0
        out = capsys.readouterr().out
        assert "run-a" in out and "run-b" in out and "completed" in out

    def test_list_empty_root(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path), "list"]) == 0
        assert "no run ledgers" in capsys.readouterr().out

    def test_summary_completed_run(self, run_pair, capsys):
        root, _ = run_pair
        assert main(["--root", str(root), "summary", "run-a"]) == 0
        out = capsys.readouterr().out
        assert "status   completed" in out
        assert "1 spans, 1 instants" in out
        assert "hpl/panel" in out
        assert "panels" in out  # last metrics checkpoint
        assert "gflops: 10.0" in out

    def test_summary_of_in_flight_run(self, tmp_path, capsys):
        ledger = RunLedger.open(
            "dead", root=tmp_path, run_id="dead",
            flush_records=1, flush_interval=None, fsync=False,
        )
        ledger.sink.complete("t", "x", 0.0, 1.0)
        # never finished — the post-mortem path
        assert main(["--root", str(tmp_path), "summary", "dead"]) == 0
        out = capsys.readouterr().out
        assert "status   in-flight" in out
        assert "run is in flight or died" in out
        ledger.finish()

    def test_summary_accepts_latest_and_paths(self, run_pair, capsys):
        root, ledgers = run_pair
        assert main(["--root", str(root), "summary", "latest"]) == 0
        assert main(["--root", str(root), "summary", str(ledgers["run-a"].directory)]) == 0

    def test_missing_run_exits_2(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path), "summary", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_tail_prints_recent_records(self, run_pair, capsys):
        root, _ = run_pair
        assert main(["--root", str(root), "tail", "run-a", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "span" in out and "instant" in out and "p0" in out

    def test_diff_compares_last_checkpoints(self, run_pair, capsys):
        root, _ = run_pair
        assert main(["--root", str(root), "diff", "run-a", "run-b"]) == 0
        out = capsys.readouterr().out
        assert "panels" in out
        assert "+50.0%" in out  # 10 -> 15

    def test_trace_exports_chrome_json(self, run_pair, tmp_path, capsys):
        root, _ = run_pair
        out_path = tmp_path / "trace.json"
        assert main(["--root", str(root), "trace", "run-a", "--out", str(out_path)]) == 0
        events = json.loads(out_path.read_text())
        assert any(e.get("ph") == "X" for e in events)

    def test_trace_defaults_into_run_directory(self, run_pair, capsys):
        root, ledgers = run_pair
        assert main(["--root", str(root), "trace", "run-b"]) == 0
        assert (ledgers["run-b"].directory / "trace.json").exists()


class TestRegressCommand:
    def test_no_history_file(self, tmp_path, capsys):
        assert main(["regress", "--history", str(tmp_path / "none.jsonl")]) == 0
        assert "no history recorded" in capsys.readouterr().out

    def test_single_entry_is_not_enough(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        history.append_entry(_entry(1.0), path)
        assert main(["regress", "--history", str(path)]) == 0
        assert "not enough history" in capsys.readouterr().out

    def test_steady_history_passes(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        for wall in range(3):
            history.append_entry(_entry(float(wall)), path)
        assert main(["regress", "--history", str(path)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_throughput_drop_flags_and_exits_1(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        for wall in range(3):
            history.append_entry(_entry(float(wall)), path)
        history.append_entry(_entry(3.0, eps=100_000.0), path)  # -50% throughput
        assert main(["regress", "--history", str(path)]) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err and "des_engine.scalar_events_per_second" in err

    def test_warn_only_reports_but_exits_0(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        history.append_entry(_entry(0.0), path)
        history.append_entry(_entry(1.0, sweep=10.0), path)  # 5x slower sweep
        assert main(["regress", "--history", str(path), "--warn-only"]) == 0
        err = capsys.readouterr().err
        assert "REGRESSION" in err and "--warn-only" in err

    def test_threshold_is_configurable(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        history.append_entry(_entry(0.0), path)
        history.append_entry(_entry(1.0, sweep=2.2), path)  # +10% slower
        assert main(["regress", "--history", str(path)]) == 0  # under default 25%
        assert main(["regress", "--history", str(path), "--threshold", "0.05"]) == 1


class TestHistoryModel:
    def test_entry_from_report_flattens_tracked_metrics(self):
        report = {
            "meta": {"quick": True, "jobs": 4, "cpu_count": 8, "code_version": "abc"},
            "des_engine": {"scalar_events_per_second": 123456.0},
            "fig9_sweep": {"serial_seconds": 3.5},
            "unrelated": {"events_per_second": 1.0},
        }
        entry = history.entry_from_report(report, wall_unix=42.0)
        assert entry["wall_unix"] == 42.0
        assert entry["quick"] is True and entry["cpu_count"] == 8
        assert entry["metrics"] == {
            "des_engine.scalar_events_per_second": 123456.0,
            "fig9_sweep.serial_seconds": 3.5,
        }

    def test_incomparable_entries_are_excluded_from_baseline(self):
        entries = [
            _entry(0.0, cpus=64, eps=1_000_000.0),  # beefy CI box: not a baseline
            _entry(1.0, eps=200_000.0),
            _entry(2.0, eps=190_000.0),
        ]
        regressions, note = history.detect_regressions(entries)
        assert regressions == []
        assert "1 comparable prior entry" in note

    def test_all_incomparable_gives_empty_with_note(self):
        entries = [_entry(0.0, quick=False), _entry(1.0, quick=True)]
        regressions, note = history.detect_regressions(entries)
        assert regressions == []
        assert "no comparable baseline" in note

    def test_rolling_window_limits_baseline(self):
        # Old slow entries fall out of the window; the recent fast median rules.
        entries = [_entry(float(i), sweep=10.0) for i in range(3)]
        entries += [_entry(float(i + 3), sweep=1.0) for i in range(5)]
        entries.append(_entry(99.0, sweep=1.5))  # +50% vs recent window of 1.0s
        regressions, _ = history.detect_regressions(entries, window=5)
        assert [r.metric for r in regressions] == ["fig9_sweep.serial_seconds"]
        assert regressions[0].baseline == 1.0

    def test_improvement_never_flags(self):
        entries = [_entry(0.0), _entry(1.0, eps=400_000.0, sweep=1.0)]
        regressions, _ = history.detect_regressions(entries)
        assert regressions == []

    def test_load_history_skips_torn_tail(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history.append_entry(_entry(0.0), path)
        with open(path, "a") as handle:
            handle.write('{"wall_unix": 1.0, "metr')
        entries = history.load_history(path)
        assert len(entries) == 1

    def test_describe_names_direction(self):
        regression = history.Regression(
            "des_engine.scalar_events_per_second", "higher", 200_000.0, 100_000.0, 0.5
        )
        assert "fell" in regression.describe()
