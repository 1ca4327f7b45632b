"""Performance benchmark of the sweep-execution layer — emits BENCH_perf.json.

Measures the three optimizations this layer stacks on the paper's sweeps,
each against the serial scalar oracle *on the same machine*:

* ``fig9_sweep``   — the Fig. 9 grid, serial scalar vs parallel scalar
  (must be bit-identical) vs parallel+vectorized batch runs (must be
  bit-identical too: ``vectorized_max_rel_error`` is exactly 0).
* ``crossval``     — the analytic-vs-DES differential matrix, serial vs
  parallel (reports must be structurally identical).
* ``cache``        — cold vs warm Fig. 9 through the on-disk result cache
  (warm must serve >= 90% of lookups from disk).
* ``des_engine``   — raw kernel throughput on the relay-heavy scalar mix
  (one generator resume per event: event pooling + O(1) barriers), gated
  by ``--des-scalar-floor`` under a NullSink telemetry.
* ``des_feasibility`` — the "largest DES-feasible machine" tracker: runs
  the grid-scale crossval cells (distributed LU on 2x2..8x8 grids), then
  keeps doubling the grid until the wall-clock budget binds, and records
  the largest rank count that verifies inside it plus the 8x8 cell's
  event rate.  ``--check`` pins the floor at 64 ranks.
* ``telemetry_overhead`` — an instrumented fig9 sweep three ways (no
  telemetry, NullSink, streaming run ledger); the streaming measurement is
  recorded *into the ledger it creates*, and ``--check`` gates the
  streaming sink at <=10% wall-time over the NullSink run.

Every run also appends one flattened line to
``benchmarks/BENCH_history.jsonl`` (disable with ``--no-history``) — the
bench *trajectory* that ``python -m repro.obs regress`` compares against,
instead of the single overwritten ``BENCH_perf.json`` snapshot.

Usage::

    python benchmarks/bench_perf.py --quick --check
    python benchmarks/bench_perf.py --quick --profile
    python benchmarks/bench_perf.py --out benchmarks/out/BENCH_perf.json

``--profile`` re-runs the engine microbench under cProfile and writes
``BENCH_profile.txt`` (top-30 by cumulative and by tottime) plus the raw
``BENCH_profile.prof`` next to the ``--out`` report — the profile-guided
loop for hot-path work (see docs/performance.md).

``--check`` turns the correctness comparisons into hard assertions (the CI
bench-smoke lane runs it); speedups are reported, never asserted — they
depend on the core count of the machine running the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs
from repro.bench.linpack_sweep import _fig9_values
from repro.exec import ExecutionPolicy, code_version, use
from repro.hpl.driver import CONFIGURATIONS, Configuration
from repro.obs import history as bench_history
from repro.sim import Simulator
from repro.sim.resources import Resource, Store
from repro.util.io import atomic_write_text
from repro.verify.differential import MATRIX, run_matrix

DEFAULT_OUT = Path(__file__).parent / "out" / "BENCH_perf.json"

QUICK_SIZES = (5750, 11500)
FULL_SIZES = (5750, 11500, 23000, 34500, 46000)
SEED = 7

#: Floor for the scalar engine mix (one generator resume per event).
#: Conservative: local runs measure ~550k+; shared CI runners are slower.
DEFAULT_DES_SCALAR_FLOOR = 150_000.0

#: A feasibility cell must verify inside this wall budget to count toward
#: the "largest DES-feasible machine" tracker.
FEASIBILITY_BUDGET_S = 60.0

#: --check pins the tracker here: the crossval matrix must keep >= one
#: 64-rank (8x8 grid) DES cell feasible.
FEASIBILITY_FLOOR_RANKS = 64

#: The streaming sink may add at most this fraction of wall time over the
#: NullSink-instrumented sweep (plus a small absolute slack for sub-second
#: timing noise).
STREAMING_OVERHEAD_LIMIT = 0.10
STREAMING_OVERHEAD_SLACK_S = 0.25


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench_fig9(sizes, jobs: int) -> dict:
    """Serial scalar vs parallel scalar vs parallel+vectorized Fig. 9 grid."""
    configs = tuple(Configuration.parse(c) for c in CONFIGURATIONS)

    def sweep(policy):
        with use(policy):
            return _fig9_values(configs, sizes, None, SEED)

    serial, serial_s = _timed(lambda: sweep(ExecutionPolicy(jobs=1)))
    parallel, parallel_s = _timed(lambda: sweep(ExecutionPolicy(jobs=jobs)))
    vector, vector_s = _timed(
        lambda: sweep(ExecutionPolicy(jobs=jobs, vectorize=True))
    )

    flat = [(str(c), n) for c in configs for n in sizes]
    bit_identical = all(serial[c][n] == parallel[c][n] for c, n in flat)
    max_rel = max(
        abs(vector[c][n] - serial[c][n]) / abs(serial[c][n]) for c, n in flat
    )
    return {
        "points": len(flat),
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "vectorized_seconds": vector_s,
        "parallel_speedup": serial_s / parallel_s if parallel_s > 0 else None,
        "vectorized_speedup": serial_s / vector_s if vector_s > 0 else None,
        "parallel_bit_identical": bit_identical,
        "vectorized_max_rel_error": max_rel,
    }


def bench_crossval(quick: bool, jobs: int) -> dict:
    """The differential matrix, serial vs parallel, identical reports."""
    cases = MATRIX[:2] if quick else MATRIX

    def matrix(policy):
        with use(policy):
            return run_matrix(cases)

    serial, serial_s = _timed(lambda: matrix(ExecutionPolicy(jobs=1)))
    parallel, parallel_s = _timed(lambda: matrix(ExecutionPolicy(jobs=jobs)))
    return {
        "cases": len(cases),
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "parallel_speedup": serial_s / parallel_s if parallel_s > 0 else None,
        "reports_identical": serial.to_dict() == parallel.to_dict(),
        "serial_ok": serial.ok,
        "parallel_ok": parallel.ok,
    }


def bench_cache(sizes, jobs: int) -> dict:
    """Cold vs warm Fig. 9 through a fresh on-disk result cache."""
    configs = tuple(Configuration.parse(c) for c in CONFIGURATIONS)
    with tempfile.TemporaryDirectory(prefix="bench-perf-cache-") as tmp:
        cold_policy = ExecutionPolicy(jobs=jobs, cache=True, cache_dir=Path(tmp))
        warm_policy = ExecutionPolicy(jobs=jobs, cache=True, cache_dir=Path(tmp))

        def sweep(policy):
            with use(policy):
                return _fig9_values(configs, sizes, None, SEED)

        cold, cold_s = _timed(lambda: sweep(cold_policy))
        warm, warm_s = _timed(lambda: sweep(warm_policy))
    return {
        "points": len(configs) * len(sizes),
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "warm_speedup": cold_s / warm_s if warm_s > 0 else None,
        "warm_hits": warm_policy.stats.cache_hits,
        "warm_misses": warm_policy.stats.cache_misses,
        "warm_hit_rate": warm_policy.stats.hit_rate,
        "values_identical": cold == warm,
    }


def _producer(store, n):
    for i in range(n):
        yield store.put(i)


def _consumer(store, n, done):
    for _ in range(n):
        yield store.get()
        yield done  # already processed -> exercises the pooled relay path


def _worker(sim, res, n):
    for _ in range(n):
        req = res.request()
        yield req
        yield sim.timeout(0.001)
        res.release(req)


def bench_telemetry_overhead(sizes) -> dict:
    """Instrumented fig9 sweep: bare vs NullSink vs streaming run ledger.

    The streaming run records into a real ledger under
    ``benchmarks/out/runs/`` and the measured overhead is written into that
    ledger's own summary — the flight recorder carries its own cost.
    """
    configs = (Configuration.parse("acmlg_both"),)

    def sweep(telemetry):
        with obs.use(telemetry):
            return _fig9_values(configs, sizes, None, SEED)

    bare, bare_s = _timed(lambda: sweep(None))
    null, null_s = _timed(lambda: sweep(obs.Telemetry(sink=obs.NULL_SINK)))
    ledger = obs.RunLedger.open(
        "bench-perf-overhead", config={"sizes": list(sizes)}
    )
    stream, stream_s = _timed(lambda: sweep(ledger.telemetry))
    streaming_overhead = stream_s / null_s - 1.0 if null_s > 0 else 0.0
    null_overhead = null_s / bare_s - 1.0 if bare_s > 0 else 0.0
    summary = {
        "bare_seconds": bare_s,
        "null_sink_seconds": null_s,
        "streaming_seconds": stream_s,
        "null_overhead": null_overhead,
        "streaming_overhead": streaming_overhead,
    }
    ledger.finish(summary)
    flat = [(str(c), n) for c in configs for n in sizes]
    return {
        **summary,
        "run_id": ledger.run_id,
        "records_streamed": ledger.sink.records_written,
        "values_identical": all(
            bare[c][n] == null[c][n] == stream[c][n] for c, n in flat
        ),
    }


def bench_des(quick: bool) -> dict:
    """Kernel throughput on the relay-heavy scalar mix: one generator
    resume per event, under an ambient NullSink.

    The floor gate asserts the zero-cost discipline holds with the
    telemetry hooks present but disabled.
    """
    n = 5000 if quick else 20000
    sim = Simulator()
    done = sim.timeout(0.0)
    store = Store(sim)
    res = Resource(sim, capacity=2)
    for _ in range(4):
        sim.process(_producer(store, n))
        sim.process(_consumer(store, n, done))
        sim.process(_worker(sim, res, n // 4))
    with obs.use(obs.Telemetry(sink=obs.NULL_SINK)):
        _, wall = _timed(sim.run)
    return {
        "scalar_events_processed": sim.events_processed,
        "scalar_wall_seconds": wall,
        "scalar_events_per_second": sim.events_processed / wall if wall > 0 else None,
    }


def _feasibility_ladder():
    """The binomial grid crossval cells, then P = Q doubling at n = 32 P, unbounded."""
    from repro.verify.gridcases import GRID_MATRIX, GridCase

    cases = [c for c in GRID_MATRIX if c.bcast_algo == "binomial"]
    yield from cases
    p = cases[-1].nprow
    while True:
        p *= 2
        yield GridCase(name=f"grid{p}x{p}", nprow=p, npcol=p, n=32 * p, nb=8)


def bench_des_feasibility() -> dict:
    """The "largest DES-feasible machine" tracker: an open-ended grid ladder.

    Climbs :func:`_feasibility_ladder` (numeric distributed LU over
    simulated MPI, one FlopsEngine per rank) until a cell fails
    verification or misses :data:`FEASIBILITY_BUDGET_S`.  A rung whose
    predicted wall — the last wall times the last growth ratio — exceeds
    the budget is not started.  Per cell, ``wall_seconds`` is the whole
    cell (networked and reference factorizations plus the checks), the
    budget wall; ``events_per_second`` divides the networked run's events
    by that run's own time inside ``Simulator.run``.
    """
    from repro.verify.gridcases import run_grid_case

    cells = []
    largest = 0
    predicted = None  # the wall predicted for the first rung not started
    for case in _feasibility_ladder():
        if len(cells) >= 2:
            last, before = cells[-1]["wall_seconds"], cells[-2]["wall_seconds"]
            if last * last / before > FEASIBILITY_BUDGET_S:
                predicted = last * last / before
                break
        outcome, wall = _timed(lambda case=case: run_grid_case(case))
        stats = outcome.sim_stats
        feasible = outcome.ok and wall <= FEASIBILITY_BUDGET_S
        cells.append({
            "name": case.name,
            "ranks": case.ranks,
            "n": case.n,
            "events_processed": stats.events_processed,
            "wall_seconds": wall,
            "events_per_second": (
                stats.events_processed / stats.wall_seconds if stats.wall_seconds > 0 else None
            ),
            "verified": outcome.ok,
            "feasible": feasible,
        })
        if not feasible:
            break
        largest = case.ranks
    return {
        "budget_seconds": FEASIBILITY_BUDGET_S,
        "cells": cells,
        "largest_feasible_ranks": largest,
        "next_rung_predicted_seconds": predicted,
        "grid8x8_events_per_second": next(
            (c["events_per_second"] for c in cells if c["name"] == "grid8x8"), None
        ),
    }


def run_benchmarks(quick: bool, jobs: int) -> dict:
    sizes = QUICK_SIZES if quick else FULL_SIZES
    return {
        "meta": {
            "quick": quick,
            "jobs": jobs,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "code_version": code_version(),
        },
        "fig9_sweep": bench_fig9(sizes, jobs),
        "crossval": bench_crossval(quick, jobs),
        "cache": bench_cache(sizes, jobs),
        "des_engine": bench_des(quick),
        "des_feasibility": bench_des_feasibility(),
        "telemetry_overhead": bench_telemetry_overhead(QUICK_SIZES),
    }


def check(
    report: dict,
    des_scalar_floor: float = DEFAULT_DES_SCALAR_FLOOR,
) -> list[str]:
    """The correctness gates (never the cross-machine speedups) as failures.

    The two throughput-ish gates — the DES floor and the streaming-sink
    overhead cap — are deliberately loose: they catch order-of-magnitude
    regressions and instrumentation on the hot path, not runner noise.
    """
    failures = []
    if not report["fig9_sweep"]["parallel_bit_identical"]:
        failures.append("fig9: parallel results are not bit-identical to serial")
    if report["fig9_sweep"]["vectorized_max_rel_error"] != 0.0:
        failures.append(
            "fig9: vectorized results are not bit-identical to serial "
            f"(max rel error {report['fig9_sweep']['vectorized_max_rel_error']:.3e})"
        )
    if not report["crossval"]["reports_identical"]:
        failures.append("crossval: parallel report differs from serial")
    if report["cache"]["warm_hit_rate"] < 0.9:
        failures.append(
            f"cache: warm hit rate {report['cache']['warm_hit_rate']:.0%} < 90%"
        )
    if not report["cache"]["values_identical"]:
        failures.append("cache: warm values differ from cold values")
    scalar_eps = report["des_engine"]["scalar_events_per_second"] or 0.0
    if scalar_eps < des_scalar_floor:
        failures.append(
            f"des: scalar engine microbench {scalar_eps:,.0f} events/s fell "
            f"below the {des_scalar_floor:,.0f} floor (NullSink telemetry active)"
        )
    feas = report["des_feasibility"]
    if feas["largest_feasible_ranks"] < FEASIBILITY_FLOOR_RANKS:
        failures.append(
            "des_feasibility: largest DES-feasible machine is "
            f"{feas['largest_feasible_ranks']} ranks, below the "
            f"{FEASIBILITY_FLOOR_RANKS}-rank floor (8x8 grid)"
        )
    unverified = [c["name"] for c in feas["cells"] if not c["verified"]]
    if unverified:
        failures.append(
            f"des_feasibility: grid cells failed verification: {', '.join(unverified)}"
        )
    overhead = report["telemetry_overhead"]
    limit = (
        overhead["null_sink_seconds"] * (1.0 + STREAMING_OVERHEAD_LIMIT)
        + STREAMING_OVERHEAD_SLACK_S
    )
    if overhead["streaming_seconds"] > limit:
        failures.append(
            "telemetry: streaming sink added "
            f"{overhead['streaming_overhead']:.1%} wall time "
            f"(> {STREAMING_OVERHEAD_LIMIT:.0%} cap) on the instrumented fig9 sweep"
        )
    if not overhead["values_identical"]:
        failures.append("telemetry: instrumented sweep values differ from bare run")
    return failures


def write_profile(out: Path, quick: bool) -> tuple[Path, Path]:
    """Profile the engine microbench; write pstats text + raw dump.

    The text report lists the top 30 functions by cumulative and by own
    time — the reading order for hot-path work: own time names the loop to
    attack, cumulative names the caller that makes it hot.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    bench_des(quick)
    profiler.disable()
    prof_path = out.parent / "BENCH_profile.prof"
    txt_path = out.parent / "BENCH_profile.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    profiler.dump_stats(prof_path)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    buffer.write("== engine microbench: top 30 by cumulative time ==\n")
    stats.sort_stats("cumulative").print_stats(30)
    buffer.write("\n== engine microbench: top 30 by own (tot) time ==\n")
    stats.sort_stats("tottime").print_stats(30)
    atomic_write_text(txt_path, buffer.getvalue())
    return prof_path, txt_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small grid (CI smoke)")
    parser.add_argument(
        "--check", action="store_true", help="assert the correctness gates"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the engine microbench; writes BENCH_profile.{txt,prof} "
        "next to --out",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default: all cores)"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help=f"output path (default {DEFAULT_OUT})"
    )
    parser.add_argument(
        "--des-scalar-floor",
        type=float,
        default=DEFAULT_DES_SCALAR_FLOOR,
        help="events/s floor for the scalar engine microbench "
        f"(default {DEFAULT_DES_SCALAR_FLOOR:,.0f})",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=bench_history.DEFAULT_HISTORY_PATH,
        help=f"bench trajectory file (default {bench_history.DEFAULT_HISTORY_PATH})",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="do not append this run to the bench trajectory",
    )
    args = parser.parse_args(argv)

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    report = run_benchmarks(args.quick, jobs)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")
    if not args.no_history:
        entry = bench_history.entry_from_report(report, wall_unix=time.time())
        bench_history.append_entry(entry, args.history)
        print(f"history: appended entry #{len(bench_history.load_history(args.history))} "
              f"to {args.history}")

    f9, cv, ca, de = (
        report["fig9_sweep"], report["crossval"], report["cache"], report["des_engine"]
    )
    print(f"fig9     serial {f9['serial_seconds']:.2f}s  "
          f"parallel {f9['parallel_seconds']:.2f}s ({f9['parallel_speedup']:.2f}x, "
          f"bit-identical={f9['parallel_bit_identical']})  "
          f"vectorized {f9['vectorized_seconds']:.2f}s ({f9['vectorized_speedup']:.2f}x, "
          f"max rel {f9['vectorized_max_rel_error']:.1e})")
    print(f"crossval serial {cv['serial_seconds']:.2f}s  "
          f"parallel {cv['parallel_seconds']:.2f}s ({cv['parallel_speedup']:.2f}x, "
          f"identical={cv['reports_identical']})")
    print(f"cache    cold {ca['cold_seconds']:.2f}s  warm {ca['warm_seconds']:.2f}s "
          f"({ca['warm_speedup']:.1f}x, {ca['warm_hit_rate']:.0%} hit)")
    print(f"des      scalar {de['scalar_events_processed']} events at "
          f"{de['scalar_events_per_second']:,.0f}/s")
    fe = report["des_feasibility"]
    cell_text = "  ".join(
        f"{c['ranks']}r:{c['wall_seconds']:.1f}s{'' if c['feasible'] else '!'}"
        for c in fe["cells"]
    )
    print(f"feas     largest DES-feasible machine {fe['largest_feasible_ranks']} ranks "
          f"(budget {fe['budget_seconds']:.0f}s)  [{cell_text}]  "
          f"8x8 {fe['grid8x8_events_per_second'] or 0:,.0f} events/s")
    to = report["telemetry_overhead"]
    print(f"obs      bare {to['bare_seconds']:.2f}s  null {to['null_sink_seconds']:.2f}s "
          f"({to['null_overhead']:+.1%})  streaming {to['streaming_seconds']:.2f}s "
          f"({to['streaming_overhead']:+.1%}, {to['records_streamed']} records, "
          f"ledger {to['run_id']})")
    print(f"report written to {args.out}")

    if args.profile:
        prof_path, txt_path = write_profile(args.out, args.quick)
        print(f"profile written to {txt_path} (raw: {prof_path})")

    if args.check:
        failures = check(report, des_scalar_floor=args.des_scalar_floor)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
