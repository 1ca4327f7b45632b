"""The bench trajectory and the perf-regression sentinel.

``BENCH_perf.json`` is a snapshot — overwritten on every run, so the repo
never knew whether the DES engine got slower last week.  This module keeps
the *trajectory*: every ``benchmarks/bench_perf.py`` run appends one line
to ``benchmarks/BENCH_history.jsonl`` (flat metrics plus enough context to
compare like with like), and ``python -m repro.obs regress`` flags the
latest entry against a rolling window of its predecessors.

Comparisons are scoped to entries with the same ``quick`` flag and the
same ``cpu_count`` — a laptop run never regresses against a CI runner.
Each tracked metric carries a direction (throughput up is good, seconds
down is good); a regression is a relative move in the bad direction larger
than the threshold.  The sentinel is advisory by default in CI
(``--warn-only``) because shared runners are noisy; locally it is a hard
gate.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Iterable, Optional, Union

from repro.obs.stream import iter_jsonl
from repro.util.tables import TextTable

#: Where the bench trajectory lives (one JSON line per bench_perf run).
DEFAULT_HISTORY_PATH = Path("benchmarks") / "BENCH_history.jsonl"

#: Tracked metric → direction ("higher" is better, or "lower" is better).
#: Keys are dotted paths into the ``bench_perf`` report.
TRACKED_METRICS: dict[str, str] = {
    # The DES kernel's relay-heavy scalar mix (one generator resume per
    # event, the path every simulation takes).
    "des_engine.scalar_events_per_second": "higher",
    # The "largest DES-feasible machine" tracker (grid-scale crossval
    # cells verified inside the wall budget): shrinking grids regress.
    "des_feasibility.largest_feasible_ranks": "higher",
    # The real DES grid cell's rate: the 8x8 networked run's events over
    # its own Simulator.run wall (what grid work actually runs at).
    "des_feasibility.grid8x8_events_per_second": "higher",
    "fig9_sweep.serial_seconds": "lower",
    "fig9_sweep.parallel_seconds": "lower",
    "fig9_sweep.vectorized_seconds": "lower",
    "crossval.serial_seconds": "lower",
    "crossval.parallel_seconds": "lower",
    "cache.cold_seconds": "lower",
    "cache.warm_seconds": "lower",
    # The raw streamed wall time, not the overhead *ratio*: the ratio
    # hovers around zero at quick sizes, where a relative comparison is
    # pure noise (the absolute gate lives in bench_perf --check).
    "telemetry_overhead.streaming_seconds": "lower",
    # From bench_tournament.py: the fraction of tournament cells the paper's
    # adaptive scheduler wins; a drop means a scheduler-zoo change shifted
    # the competitive landscape (bench_perf entries simply lack the key).
    "tournament.adaptive_win_rate": "higher",
    # From bench_whatif_service.py: the warm-path throughput gate of the
    # what-if query service (HTTP, 8 keep-alive connections, single
    # process) and its per-request tail latency.
    "whatif_service.warm_queries_per_second": "higher",
    "whatif_service.p99_latency_ms": "lower",
}

#: Default regression threshold: worse by more than this fraction flags.
DEFAULT_THRESHOLD = 0.25

#: Default rolling-window size (prior comparable entries consulted).
DEFAULT_WINDOW = 5


def _dig(payload: dict[str, Any], dotted: str) -> Optional[float]:
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    try:
        return float(node)
    except (TypeError, ValueError):
        return None


def entry_from_report(report: dict[str, Any], *, wall_unix: float) -> dict[str, Any]:
    """Flatten one ``bench_perf`` report into a history line."""
    meta = report.get("meta", {})
    metrics = {
        name: value
        for name in TRACKED_METRICS
        if (value := _dig(report, name)) is not None
    }
    return {
        "wall_unix": wall_unix,
        "quick": bool(meta.get("quick", False)),
        "jobs": meta.get("jobs"),
        "cpu_count": meta.get("cpu_count"),
        "code_version": meta.get("code_version"),
        "metrics": metrics,
    }


def append_entry(entry: dict[str, Any], path: Union[str, Path] = DEFAULT_HISTORY_PATH) -> Path:
    """Append one history line durably (append + flush + fsync)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, default=str) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    return path


def load_history(path: Union[str, Path] = DEFAULT_HISTORY_PATH) -> list[dict[str, Any]]:
    """All parseable history entries, in file order (truncated tail skipped)."""
    path = Path(path)
    if not path.exists():
        return []
    return [record for record, ok in iter_jsonl(path) if ok]


@dataclass(frozen=True)
class Regression:
    """One metric that moved in the bad direction past the threshold."""

    metric: str
    direction: str
    baseline: float
    value: float
    change: float  # signed relative move; positive = worse

    def describe(self) -> str:
        arrow = "fell" if self.direction == "higher" else "rose"
        return (
            f"{self.metric} {arrow} {self.change:+.1%} against the rolling "
            f"baseline ({self.baseline:.6g} -> {self.value:.6g})"
        )


def _comparable(entry: dict[str, Any], latest: dict[str, Any]) -> bool:
    return (
        entry.get("quick") == latest.get("quick")
        and entry.get("cpu_count") == latest.get("cpu_count")
    )


def detect_regressions(
    entries: Iterable[dict[str, Any]],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
) -> tuple[list[Regression], str]:
    """Compare the last entry against the rolling median of its predecessors.

    Returns ``(regressions, note)`` — the note explains an empty result
    ("not enough history", "no comparable baseline entries") so CI logs are
    self-describing.
    """
    entries = list(entries)
    if len(entries) < 2:
        return [], f"not enough history ({len(entries)} entr{'y' if len(entries) == 1 else 'ies'}; need 2)"
    latest = entries[-1]
    baseline_pool = [e for e in entries[:-1] if _comparable(e, latest)]
    if not baseline_pool:
        return [], "no comparable baseline entries (quick/cpu_count mismatch)"
    baseline_pool = baseline_pool[-window:]

    regressions: list[Regression] = []
    for metric, direction in TRACKED_METRICS.items():
        value = latest.get("metrics", {}).get(metric)
        if value is None:
            continue
        prior = [
            e["metrics"][metric]
            for e in baseline_pool
            if e.get("metrics", {}).get(metric) is not None
        ]
        if not prior:
            continue
        baseline = float(median(prior))
        if baseline == 0.0:
            continue
        rel = (float(value) - baseline) / abs(baseline)
        worse = -rel if direction == "higher" else rel
        if worse > threshold:
            regressions.append(
                Regression(metric, direction, baseline, float(value), worse)
            )
    note = f"compared against {len(baseline_pool)} comparable prior entr" + (
        "y" if len(baseline_pool) == 1 else "ies"
    )
    return regressions, note


def render_trend(
    entries: Iterable[dict[str, Any]], *, window: int = DEFAULT_WINDOW
) -> str:
    """A compact table of each tracked metric's latest value vs its baseline."""
    entries = list(entries)
    if not entries:
        return "no history recorded"
    latest = entries[-1]
    baseline_pool = [e for e in entries[:-1] if _comparable(e, latest)][-window:]
    table = TextTable(
        ["metric", "direction", "baseline(median)", "latest", "change"],
        title=f"bench trajectory ({len(entries)} entries)",
    )
    for metric, direction in TRACKED_METRICS.items():
        value = latest.get("metrics", {}).get(metric)
        if value is None:
            continue
        prior = [
            e["metrics"][metric]
            for e in baseline_pool
            if e.get("metrics", {}).get(metric) is not None
        ]
        if prior:
            baseline = float(median(prior))
            change = (
                f"{(float(value) - baseline) / abs(baseline):+.1%}"
                if baseline
                else "-"
            )
            baseline_text = f"{baseline:.6g}"
        else:
            baseline_text, change = "-", "-"
        table.add_row(metric, direction, baseline_text, f"{float(value):.6g}", change)
    return table.render()
