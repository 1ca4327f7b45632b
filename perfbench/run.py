#!/usr/bin/env python3
"""The repository benchmark: one workload per run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Workloads: ``paper`` (the full-size figure suite, cold), ``des-grid`` (the
DES grid crossval cells) and ``whatif`` (open-loop HTTP traffic against the
what-if service).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload again with spans and a package profile and
prints the per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries host metadata, sample counts and any check failures.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKLOADS = {"paper": "paper", "des-grid": "desgrid", "whatif": "whatif"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    harness.require_checkout()
    if args.setup_probe:
        workdir = harness.enter_workdir("setup")
        try:
            importlib.import_module(WORKLOADS[args.setup_probe]).setup_probe(args.seed)
        finally:
            harness.leave_workdir(workdir)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    reference = harness.load_reference()
    module = importlib.import_module(WORKLOADS[args.workload])
    workdir = harness.enter_workdir(args.workload)
    try:
        setup_samples: list[float] = []
        if not args.trace:
            setup_s, setup_samples = harness.measure_setup(args.workload, args.seed)
        outcome = module.run(args.seed, args.seconds, bool(args.trace), workdir, reference)
        if not args.trace:
            outcome.metrics["setup_s"] = setup_s
    finally:
        harness.leave_workdir(workdir)

    declared = harness.PER_LAYER if args.trace else harness.END_TO_END
    metrics = {
        metric.name: {"value": float(outcome.metrics.get(metric.name, 0.0)), "unit": metric.unit}
        for metric in declared
    }
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "host": harness.host_metadata(args.seed),
        "setup_samples_s": setup_samples,
        "errors": outcome.errors,
        **outcome.details,
    }
    print(json.dumps({"details": details}, default=str))
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
