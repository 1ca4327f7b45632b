"""repro — reproduction of "Adaptive Optimization for Petascale Heterogeneous
CPU/GPU Computing" (Yang et al., CLUSTER 2010): the TianHe-1 Linpack.

The package implements the paper's two contributions — two-level adaptive
CPU/GPU task mapping and software pipelining of the GPU task queue — plus
every substrate they ran on, as a calibrated simulation:

* :mod:`repro.sim` — discrete-event simulation kernel (virtual clock).
* :mod:`repro.machine` — TianHe-1 hardware models: CPU cores, RV770 GPUs,
  the two-hop PCIe path, compute elements, cabinets, the full cluster,
  QDR InfiniBand, power, and run-time variability.
* :mod:`repro.blas` — real numeric DGEMM/DTRSM/LU kernels (numpy-backed).
* :mod:`repro.core` — the contribution: split databases, the adaptive
  mapper, static and Qilin-style baselines, task queues with bounce-corner-
  turn ordering, and the CT/NT software pipeline.
* :mod:`repro.mpi` — simulated MPI (point-to-point, collectives, groups).
* :mod:`repro.hpl` — High-Performance Linpack: block-cyclic grids, a
  numeric distributed LU that passes the official residual test, and the
  vectorized analytic stepper that reproduces the petascale figures.
* :mod:`repro.model` — closed-form performance models and every number the
  paper states (:mod:`repro.model.calibration`).
* :mod:`repro.bench` — generators for each of the paper's tables/figures.

Quick start — describe a Linpack run as a :class:`~repro.session.Scenario`
and execute it::

    from repro import Scenario, Session

    result = Session(Scenario(scheduler="acmlg_both", n=40000)).run()
    print(f"{result.gflops:.1f} GFLOPS")

and the same run under an injected mid-run GPU thermal throttle::

    from repro import FaultSpec, GpuThrottle

    faulted = Scenario(scheduler="acmlg_both", n=40000,
                       faults=FaultSpec(throttles=(GpuThrottle(at=20.0,
                                        recovery_s=10.0),)))
    result = Session(faulted).run()
    print(result.degraded.describe())
"""

from repro.core.adaptive import AdaptiveMapper, Observation
from repro.core.hybrid_dgemm import HybridDgemm, HybridDgemmResult, cpu_only_dgemm
from repro.core.pipeline import SoftwarePipeline, SyncExecutor
from repro.core.qilin import QilinMapper
from repro.core.static_map import StaticMapper
from repro.core.taskqueue import build_task_queue
from repro.faults import (
    NO_FAULTS,
    DegradedMode,
    FaultInjector,
    FaultSpec,
    GpuDropout,
    GpuThrottle,
    PcieFaultSpec,
    PcieTransferError,
    Straggler,
)
from repro.hpl.analytic import AnalyticConfig, AnalyticHpl
from repro.hpl.driver import (
    CONFIGURATIONS,
    Configuration,
    LinpackResult,
    single_element_cluster,
)
from repro.hpl.grid import BlockCyclic, ProcessGrid
from repro.machine.cluster import Cluster
from repro.machine.node import ComputeElement, Node
from repro.machine.power import TIANHE1_POWER, PowerModel
from repro.machine.presets import (
    DOWNCLOCKED_MHZ,
    STANDARD_CLOCK_MHZ,
    tianhe1_cluster,
    tianhe1_element,
    tianhe1_node,
)
from repro.machine.variability import NO_VARIABILITY, VariabilitySpec
from repro.mpi.comm import SimComm, SimMPI
from repro.session import Scenario, Session
from repro.sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "AdaptiveMapper",
    "Observation",
    "HybridDgemm",
    "HybridDgemmResult",
    "cpu_only_dgemm",
    "SoftwarePipeline",
    "SyncExecutor",
    "QilinMapper",
    "StaticMapper",
    "build_task_queue",
    "AnalyticConfig",
    "AnalyticHpl",
    "CONFIGURATIONS",
    "Configuration",
    "LinpackResult",
    "Scenario",
    "Session",
    "single_element_cluster",
    "FaultSpec",
    "FaultInjector",
    "GpuThrottle",
    "GpuDropout",
    "Straggler",
    "PcieFaultSpec",
    "PcieTransferError",
    "DegradedMode",
    "NO_FAULTS",
    "BlockCyclic",
    "ProcessGrid",
    "Cluster",
    "ComputeElement",
    "Node",
    "PowerModel",
    "TIANHE1_POWER",
    "tianhe1_cluster",
    "tianhe1_element",
    "tianhe1_node",
    "STANDARD_CLOCK_MHZ",
    "DOWNCLOCKED_MHZ",
    "VariabilitySpec",
    "NO_VARIABILITY",
    "SimMPI",
    "SimComm",
    "Simulator",
    "__version__",
]
