"""The front door: describe a run as data, then execute it — sync or async.

A :class:`Scenario` is a frozen, keyword-only description of one Linpack
experiment; two front-ends execute it:

* :class:`Session` — the original one-shot blocking API, unchanged::

      from repro.session import Scenario, Session

      result = Session(Scenario(scheduler="adaptive", n=40000)).run()
      print(result.gflops, result.degraded)

* :class:`AsyncSession` — the multi-tenant asyncio runtime: thousands of
  scenarios in flight over a persistent :class:`repro.exec.WorkerPool`,
  fair-share scheduled across named tenants (bounded admission queues,
  per-tenant in-flight caps), each submission a :class:`RunHandle` with
  ``await handle.result()`` / ``handle.stream()`` / ``handle.cancel()``::

      async with AsyncSession(slots=8) as session:
          handle = session.submit(scenario, tenant="campaign-a")
          result = await handle.result()

  Completions journal through a :class:`SweepJournal` (optionally inside a
  :class:`repro.obs.RunLedger` flight recorder), so a killed sweep resumes
  via :func:`run_sweep` losing at most its in-flight scenarios.

The two produce byte-identical results for the same scenario — the async
runtime runs the same ``Session`` body on its workers.  See
``docs/sessions.md`` for the runtime, tenancy, and checkpoint contracts,
and ``tests/soak/`` for the churn harness that pins them.
"""

from repro.session.fair_share import (
    DEFAULT_MAX_IN_FLIGHT,
    DEFAULT_MAX_QUEUED,
    AdmissionFull,
    FairShareScheduler,
)
from repro.session.journal import JOURNAL_NAME, ResumePlan, SweepJournal
from repro.session.runtime import (
    AsyncRuntime,
    AsyncSession,
    RunHandle,
    RunState,
    SessionEvent,
    run_sweep,
)
from repro.session.scenario import Scenario, SchedulerSpec
from repro.session.sync import Session, run

__all__ = [
    "Scenario",
    "SchedulerSpec",
    "Session",
    "run",
    "AsyncSession",
    "AsyncRuntime",
    "RunHandle",
    "RunState",
    "SessionEvent",
    "AdmissionFull",
    "FairShareScheduler",
    "DEFAULT_MAX_IN_FLIGHT",
    "DEFAULT_MAX_QUEUED",
    "SweepJournal",
    "ResumePlan",
    "JOURNAL_NAME",
    "run_sweep",
]
