#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``, the values every run checks.

Run from the repository root on a commit whose outputs are known good::

    python3 perfbench/make_reference.py

It regenerates the ``paper`` artifacts once, runs every ``des-grid`` cell
for every matrix seed, and answers every ``whatif`` catalog cell through
an in-process service.  Takes about two minutes on a 2-core host.  The
values depend only on the program's inputs, never on timing.
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def paper_reference() -> dict:
    import paper
    from repro import exec as exec_policy

    with tempfile.TemporaryDirectory(dir=harness.WORK) as cache_dir:
        policy = exec_policy.ExecutionPolicy(jobs=1, cache=True, cache_dir=Path(cache_dir),
                                             vectorize=True)
        with exec_policy.use(policy):
            return {name: paper._summary(name) for name in paper.ARTIFACTS}


def desgrid_reference() -> dict:
    import desgrid
    from repro.verify.gridcases import run_grid_case

    out = {}
    for index in range(len(desgrid.MATRIX_SEEDS)):
        for case in desgrid.cases_for(index):
            out[f"{case.name}@{case.seed}"] = desgrid.cell_facts(run_grid_case(case))
    return out


def whatif_reference() -> dict:
    import whatif
    from repro.campaign.service import WhatIfService

    async def answer_all(cache_dir: str) -> dict:
        service = WhatIfService(serial=True, cache_dir=cache_dir, use_disk_cache=False)
        await service.start()
        try:
            out = {}
            for query in whatif.catalog():
                body, _ = await service.answer(dict(query))
                out[whatif.cell_id(query)] = repr(json.loads(body)["record"]["gflops"])
            return out
        finally:
            await service.stop()

    with tempfile.TemporaryDirectory(dir=harness.WORK) as cache_dir:
        return asyncio.run(answer_all(cache_dir))


def main() -> int:
    harness.require_checkout()
    harness.WORK.mkdir(exist_ok=True)
    reference = {
        "paper": paper_reference(),
        "des-grid": desgrid_reference(),
        "whatif": whatif_reference(),
    }
    harness.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {harness.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
