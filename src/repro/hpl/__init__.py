"""High-Performance Linpack on the simulated TianHe-1.

* :mod:`repro.hpl.grid` — P x Q process grids and 1-D/2-D block-cyclic maps.
* :mod:`repro.hpl.dist` — a *numeric* distributed right-looking LU with
  partial pivoting over the simulated MPI: panel gather-factor, row-wise
  panel broadcast, cross-row pivot exchanges, column-wise U broadcast and
  hybrid local updates.  Passes the official HPL residual test.
* :mod:`repro.hpl.solve` — back-substitution and the HPL acceptance metric.
* :mod:`repro.hpl.analytic` — the vectorized per-panel critical-path stepper
  used for paper-scale runs (single element up to the 5120-element system).
* :mod:`repro.hpl.driver` — HPL.dat-style configuration and the five
  benchmark configurations of Section VI.B.
"""

from repro.hpl.grid import BlockCyclic, ProcessGrid
from repro.hpl.solve import hpl_residual_ok
from repro.hpl.driver import (
    CONFIGURATIONS,
    Configuration,
    HplConfig,
    LinpackResult,
    validate_overrides,
)
from repro.hpl.analytic import AnalyticConfig, AnalyticHpl, StepTrace
from repro.hpl.dist import DistributedLU, ElementEngine, InstantEngine
from repro.hpl.element_linpack import ElementLinpack
from repro.hpl.hpl_dat import HplDat, parse_hpl_dat

__all__ = [
    "BlockCyclic",
    "ProcessGrid",
    "hpl_residual_ok",
    "HplConfig",
    "LinpackResult",
    "CONFIGURATIONS",
    "Configuration",
    "validate_overrides",
    "AnalyticConfig",
    "AnalyticHpl",
    "StepTrace",
    "DistributedLU",
    "ElementEngine",
    "InstantEngine",
    "ElementLinpack",
    "HplDat",
    "parse_hpl_dat",
]
