"""Command-line entry point: regenerate any of the paper's figures.

Usage::

    python -m repro.bench --list
    python -m repro.bench fig8 [--quick] [--format text|csv|json] [--out FILE]
    python -m repro.bench fig13 --quick --trace-out trace.json --metrics-out m.json
    python -m repro.bench headline

``--quick`` shrinks problem sizes so every figure finishes in seconds —
useful for smoke-testing an installation; full-size runs match
EXPERIMENTS.md.  ``--jobs N`` fans independent scenarios across worker
processes (default: all cores; results are identical to a serial run) and
``--no-cache`` disables the on-disk result cache — a one-line ``exec:``
summary on stderr reports both (see ``docs/performance.md``).  ``--trace-out`` writes a Chrome trace-event JSON file
(open in Perfetto or ``chrome://tracing``) of everything the run recorded —
per-panel HPL spans, pipeline CT/NT states, the figure's own wall-clock
span; ``--metrics-out`` writes the metrics-registry snapshot.  See
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional

from repro import exec as exec_policy
from repro import obs
from repro.bench.cabinet import fig11_adaptive_vs_qilin
from repro.bench.dgemm_sweep import fig8_dgemm_sweep
from repro.bench.faults_bench import faults_study
from repro.bench.linpack_sweep import fig9_linpack_sweep, fig10_split_ratio
from repro.bench.fullsystem import fullsystem_bcast_sweep
from repro.bench.pipeline_trace import table1_trace, worked_example
from repro.bench.report import SeriesData
from repro.bench.scaling import fig12_cabinet_scaling, fig13_progress
from repro.bench.whatif import clock_sweep, endgame_fallback_study
from repro.hpl.driver import Configuration
from repro.util.io import atomic_write_text


def _fig8(quick: bool) -> SeriesData:
    sizes = (4096, 10240, 16384) if quick else (2048, 4096, 6144, 8192, 10240, 12288, 14336, 16384)
    return fig8_dgemm_sweep(sizes=sizes)


def _fig9(quick: bool, configurations=None) -> SeriesData:
    sizes = (11500, 23000) if quick else (5750, 11500, 23000, 34500, 46000)
    if configurations is not None:
        return fig9_linpack_sweep(sizes=sizes, configs=configurations)
    return fig9_linpack_sweep(sizes=sizes)


def _fig10(quick: bool) -> SeriesData:
    return fig10_split_ratio(n=12000 if quick else 30000)


def _fig11(quick: bool) -> SeriesData:
    if quick:
        return fig11_adaptive_vs_qilin(proc_counts=(1, 4, 16), seeds=(1,), per_element_n=20000)
    return fig11_adaptive_vs_qilin()


def _fig12(quick: bool) -> SeriesData:
    return fig12_cabinet_scaling(cabinets=(1, 2, 4) if quick else (1, 2, 4, 8, 16, 32, 64, 80))


def _fig13(quick: bool) -> SeriesData:
    if quick:
        return fig13_progress(cabinets=1, n=120_000)
    return fig13_progress()


def _clock_sweep(quick: bool) -> SeriesData:
    return clock_sweep(n=120_000 if quick else 280_000)


def _endgame(quick: bool) -> SeriesData:
    return endgame_fallback_study(n=120_000 if quick else 280_000)


def _faults(quick: bool) -> SeriesData:
    return faults_study(n=30_000 if quick else 60_000)


def _fullsystem(quick: bool) -> SeriesData:
    return fullsystem_bcast_sweep(cabinets=4 if quick else 80)


FIGURES: dict[str, Callable[[bool], SeriesData]] = {
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
    "clock-sweep": _clock_sweep,
    "endgame-fallback": _endgame,
    "faults": _faults,
    "fullsystem": _fullsystem,
}

#: Artifacts that render straight to text (no series structure).
TEXT_ARTIFACTS = {
    "table1": lambda quick: table1_trace().render(),
    "worked-example": lambda quick: worked_example().render(),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "figure",
        nargs="?",
        choices=sorted(FIGURES) + sorted(TEXT_ARTIFACTS),
        help="which artifact to regenerate",
    )
    parser.add_argument("--list", action="store_true", help="list available artifacts")
    parser.add_argument("--quick", action="store_true", help="reduced problem sizes")
    parser.add_argument(
        "--format", choices=("text", "csv", "json"), default="text", help="output format"
    )
    parser.add_argument("--out", default=None, help="write output to a file instead of stdout")
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE.json",
        help="write a Chrome trace-event JSON of the run (Perfetto-loadable)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE.json",
        help="write the telemetry metrics snapshot as JSON",
    )
    parser.add_argument(
        "--ledger",
        nargs="?",
        const=str(obs.DEFAULT_RUNS_ROOT),
        default=None,
        metavar="RUNS_DIR",
        help="record the run as a streaming ledger under RUNS_DIR "
        f"(default root: {obs.DEFAULT_RUNS_ROOT}); readable mid-run and "
        "after a crash via 'python -m repro.obs'",
    )
    parser.add_argument(
        "--scheduler",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict fig9 to this scheduler (repeatable; registry names or "
        "legacy configuration keys — see 'python -m repro.sched list')",
    )
    parser.add_argument(
        "--configurations",
        default=None,
        metavar="NAME[,NAME...]",
        help="deprecated spelling of repeatable --scheduler "
        f"(valid: {', '.join(member.value for member in Configuration)})",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for independent scenarios (default: all cores)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk result cache",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list or args.figure is None:
        print("available artifacts:")
        for name in sorted(FIGURES) + sorted(TEXT_ARTIFACTS):
            print(f"  {name}")
        return 0

    requested = list(args.scheduler or [])
    if args.configurations is not None:
        print(
            "--configurations is deprecated; pass a repeatable --scheduler instead",
            file=sys.stderr,
        )
        requested.extend(name.strip() for name in args.configurations.split(","))
    configurations = None
    if requested:
        if args.figure != "fig9":
            print("--scheduler/--configurations only apply to fig9", file=sys.stderr)
            return 2
        from repro.sched.builds import resolve_hpl_build

        try:
            configurations = tuple(resolve_hpl_build(name)[0] for name in requested)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2

    # Telemetry is only constructed when an artifact was requested, so the
    # plain path stays exactly as before (no ambient sink, no-op guards).
    ledger = None
    if args.ledger is not None:
        ledger = obs.RunLedger.open(
            args.figure,
            root=args.ledger,
            config={"quick": args.quick, "format": args.format,
                    "jobs": args.jobs, "cache": not args.no_cache},
        )
        telemetry = ledger.telemetry
        if args.trace_out or args.metrics_out:
            # Tee a recording ring alongside the stream so --trace-out can
            # still export in-process (the ledger itself has 'obs trace').
            telemetry.sink = obs.TeeSink(ledger.sink, obs.RecordingSink())
        print(f"ledger: {ledger.directory}", file=sys.stderr)
    else:
        telemetry = obs.Telemetry() if (args.trace_out or args.metrics_out) else None

    policy = exec_policy.ExecutionPolicy(
        jobs=args.jobs, cache=not args.no_cache, vectorize=True
    )

    summary: dict = {}
    try:
        with obs.use(telemetry), exec_policy.use(policy):
            if args.figure in TEXT_ARTIFACTS:
                if args.format != "text":
                    print(f"{args.figure} only supports --format text", file=sys.stderr)
                    return 2
                if telemetry is not None:
                    with telemetry.wall_span("bench", args.figure, quick=args.quick):
                        output = TEXT_ARTIFACTS[args.figure](args.quick)
                else:
                    output = TEXT_ARTIFACTS[args.figure](args.quick)
            else:
                figure = FIGURES[args.figure]
                if configurations is not None:
                    figure_fn = lambda quick: _fig9(quick, configurations)
                else:
                    figure_fn = figure
                if telemetry is not None:
                    with telemetry.wall_span("bench", args.figure, quick=args.quick):
                        data = figure_fn(args.quick)
                    data.attach_telemetry(telemetry)
                else:
                    data = figure_fn(args.quick)
                summary = dict(data.summary)
                output = {"text": data.render, "csv": data.to_csv, "json": data.to_json}[args.format]()
    except BaseException as error:
        if ledger is not None:
            ledger.fail(f"{type(error).__name__}: {error}")
        raise

    if telemetry is not None:
        if args.trace_out:
            telemetry.write_chrome_trace(args.trace_out)
        if args.metrics_out:
            telemetry.write_metrics(args.metrics_out)
    if ledger is not None:
        summary["exec"] = policy.summary_line()
        ledger.finish(summary)
    if args.out:
        atomic_write_text(args.out, output + "\n")
    else:
        print(output)
    print(policy.summary_line(), file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
