"""``python -m repro.obs`` — the read side of the streaming telemetry stack.

Subcommands::

    list      show run ledgers under the runs root (status, spans, name)
    summary   one run's manifest, stream health, metrics and summary
    tail      the last N streamed records of a run (works on dead runs)
    diff      metric-by-metric comparison of two runs
    trace     export a run's merged spans as Chrome trace-event JSON
    regress   perf sentinel: flag the latest BENCH_history.jsonl entry
              against its rolling baseline (exit 1 on regression unless
              ``--warn-only``)

``RUN`` arguments accept a run directory path, a run id under ``--root``,
or the literal ``latest``.  Every reader tolerates the debris of a crashed
run — a truncated stream tail is reported, never fatal — so this is also
the post-mortem tool: ``python -m repro.obs summary latest`` on a ledger
whose process was ``SIGKILL``-ed shows everything up to the last flush.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.obs import history as history_mod
from repro.obs.ledger import (
    DEFAULT_RUNS_ROOT,
    LedgerView,
    load_run,
    resolve_run,
    run_dirs,
)
from repro.util.io import atomic_write_text
from repro.util.tables import TextTable


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="inspect streamed run ledgers and gate perf regressions",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=DEFAULT_RUNS_ROOT,
        help=f"runs root directory (default: {DEFAULT_RUNS_ROOT})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list run ledgers under the runs root")

    p = sub.add_parser("summary", help="one run's manifest, streams and summary")
    p.add_argument("run", help="run directory, run id, or 'latest'")

    p = sub.add_parser("tail", help="the last N streamed records of a run")
    p.add_argument("run", help="run directory, run id, or 'latest'")
    p.add_argument("-n", "--lines", type=int, default=20, help="records to show")

    p = sub.add_parser("diff", help="metric-by-metric comparison of two runs")
    p.add_argument("run_a", help="baseline run")
    p.add_argument("run_b", help="candidate run")

    p = sub.add_parser("trace", help="export merged spans as Chrome trace JSON")
    p.add_argument("run", help="run directory, run id, or 'latest'")
    p.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output path (default: <run>/trace.json)",
    )

    p = sub.add_parser("regress", help="flag perf regressions in the bench history")
    p.add_argument(
        "--history",
        type=Path,
        default=history_mod.DEFAULT_HISTORY_PATH,
        help=f"history file (default: {history_mod.DEFAULT_HISTORY_PATH})",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=history_mod.DEFAULT_THRESHOLD,
        help="relative move in the bad direction that flags "
        f"(default: {history_mod.DEFAULT_THRESHOLD})",
    )
    p.add_argument(
        "--window",
        type=int,
        default=history_mod.DEFAULT_WINDOW,
        help=f"rolling baseline window (default: {history_mod.DEFAULT_WINDOW})",
    )
    p.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (CI on shared runners)",
    )
    p.add_argument(
        "--block",
        action="append",
        default=None,
        metavar="METRIC",
        help="metric that exits 1 even under --warn-only (repeatable; "
        "the bench-smoke lane blocks on des_engine.scalar_events_per_second "
        "and des_feasibility.grid8x8_events_per_second)",
    )
    return parser


def _load(args: argparse.Namespace, spec: str) -> LedgerView:
    return load_run(resolve_run(spec, args.root))


def _cmd_list(args: argparse.Namespace) -> int:
    directories = run_dirs(args.root)
    if not directories:
        print(f"no run ledgers under {args.root}")
        return 0
    table = TextTable(
        ["run_id", "name", "status", "spans", "shards", "truncated"],
        title=f"run ledgers in {args.root}",
    )
    for directory in directories:
        try:
            view = load_run(directory)
        except FileNotFoundError:
            continue
        table.add_row(
            view.run_id,
            view.name,
            view.status,
            len(view.spans),
            len(view.shards),
            "yes" if view.truncated else "",
        )
    print(table.render())
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    view = _load(args, args.run)
    manifest = view.manifest
    print(f"run      {view.run_id}")
    print(f"name     {view.name}")
    print(f"status   {view.status}")
    print(f"created  {manifest.get('created', '?')}  pid {manifest.get('pid', '?')}")
    print(f"code     {manifest.get('code_version', '?')}  python {manifest.get('python', '?')}")
    if manifest.get("config"):
        print(f"config   {json.dumps(manifest['config'], sort_keys=True, default=str)}")
    if manifest.get("scenario_hash"):
        print(f"scenario {manifest['scenario_hash']}")
    print(
        f"streams  {len(view.spans)} spans, {len(view.instants)} instants, "
        f"{len(view.shards)} worker shard(s)"
        + ("  [TRUNCATED TAIL — crashed or still writing]" if view.truncated else "")
    )
    counts = view.span_counts()
    if counts:
        table = TextTable(["track", "spans"], title="spans by track")
        for track, count in sorted(counts.items(), key=lambda kv: -kv[1])[:20]:
            table.add_row(track, count)
        print(table.render())
    last = view.last_metrics()
    if last:
        table = TextTable(["metric", "value"], title="last metrics checkpoint")
        for key, value in sorted(last.items()):
            table.add_row(key, value)
        print(table.render())
    if view.summary is not None:
        body = view.summary.get("summary") or {}
        print(
            f"summary  status={view.status} wall={view.summary.get('wall_seconds', 0):.3f}s "
            f"records={view.summary.get('records_written', '?')}"
        )
        for key, value in sorted(body.items()):
            print(f"  {key}: {value}")
    else:
        print("summary  (none — run is in flight or died; data above is the partial record)")
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    view = _load(args, args.run)
    records = [("span", s.start, s) for s in view.spans]
    records += [("instant", i.ts, i) for i in view.instants]
    records.sort(key=lambda item: item[1])
    for kind, _, record in records[-max(1, args.lines):]:
        if kind == "span":
            extra = f" {record.args}" if record.args else ""
            print(
                f"span    {record.track:28s} {record.name:20s} "
                f"[{record.start:.6g} .. {record.end:.6g}]{extra}"
            )
        else:
            extra = f" {record.args}" if record.args else ""
            print(f"instant {record.track:28s} {record.name:20s} @{record.ts:.6g}{extra}")
    if view.truncated:
        print("(stream tail truncated — crashed or still writing)", file=sys.stderr)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    a, b = _load(args, args.run_a), _load(args, args.run_b)
    metrics_a, metrics_b = a.last_metrics(), b.last_metrics()
    keys = sorted(set(metrics_a) | set(metrics_b))
    table = TextTable(
        ["metric", a.run_id[:24], b.run_id[:24], "change"],
        title="last metrics checkpoint, A vs B",
    )
    for key in keys:
        va, vb = metrics_a.get(key), metrics_b.get(key)
        change = ""
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)) and va:
            change = f"{(vb - va) / abs(va):+.1%}"
        table.add_row(key, "-" if va is None else va, "-" if vb is None else vb, change)
    print(table.render())
    print(
        f"spans: {len(a.spans)} vs {len(b.spans)}   "
        f"status: {a.status} vs {b.status}"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    view = _load(args, args.run)
    out = args.out if args.out is not None else view.directory / "trace.json"
    atomic_write_text(
        out, json.dumps(view.chrome_trace_events(), indent=1, default=str) + "\n"
    )
    print(f"wrote {len(view.spans)} spans / {len(view.instants)} instants to {out}")
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    entries = history_mod.load_history(args.history)
    regressions, note = history_mod.detect_regressions(
        entries, threshold=args.threshold, window=args.window
    )
    print(history_mod.render_trend(entries, window=args.window))
    print(f"regress: {note}; threshold {args.threshold:.0%}")
    if not regressions:
        print("regress: no regressions")
        return 0
    for regression in regressions:
        print(f"REGRESSION: {regression.describe()}", file=sys.stderr)
    blocking = [r for r in regressions if r.metric in set(args.block or ())]
    if blocking:
        # Promoted metrics gate unconditionally: --warn-only covers runner
        # noise on advisory metrics, not the hot-path throughput contract.
        for regression in blocking:
            print(f"regress: {regression.metric} is blocking", file=sys.stderr)
        return 1
    if args.warn_only:
        print("regress: --warn-only set; exiting 0", file=sys.stderr)
        return 0
    return 1


_COMMANDS = {
    "list": _cmd_list,
    "summary": _cmd_summary,
    "tail": _cmd_tail,
    "diff": _cmd_diff,
    "trace": _cmd_trace,
    "regress": _cmd_regress,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # `obs summary | head` closing the pipe early is not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
