"""HPL.dat-style configuration and the paper's five benchmark setups.

Section VI.B evaluates five Linpack builds on one compute element:

* ``cpu``             — MKL on all four cores (NB=196, the paper's CPU-only
  block size).
* ``acmlg``           — HPL linked straight against ACML-GPU: full offload,
  synchronous transfers out of HPL's pageable buffers, NB=1216.
* ``acmlg_adaptive``  — the vendor kernel wrapped in the adaptive two-level
  mapper (hybrid CPU+GPU, framework-managed pinned staging).
* ``acmlg_pipe``      — the vendor kernel wrapped in the software pipeline
  (GPU offload, transfers overlapped).
* ``acmlg_both``      — the full framework: adaptive mapping + pipelining.

The same configurations scale to multi-element grids for Section VI.C.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Optional

from repro import obs
from repro.faults.spec import DegradedMode, FaultSpec
from repro.hpl.analytic import AnalyticConfig, AnalyticHpl, AnalyticResult
from repro.hpl.grid import ProcessGrid
from repro.machine.cluster import Cluster
from repro.machine.presets import STANDARD_CLOCK_MHZ, tianhe1_cluster
from repro.machine.variability import VariabilitySpec
from repro.sched.builds import (  # noqa: F401  (re-exported legacy home)
    CONFIG_LABELS,
    CONFIGURATIONS,
    HPL_BUILDS,
    resolve_hpl_build,
)


class Configuration(str, Enum):
    """The benchmark configurations, as a closed, parse-time-validated set.

    Members are ``str`` subclasses comparing equal to their key, so code that
    matched on ``"acmlg_both"`` keeps working; new code should pass the enum
    (or call :meth:`parse` on user input, which raises a :class:`ValueError`
    naming the valid keys instead of failing deep inside the driver).

    Beyond the paper's five builds this adds the two comparison mappings the
    adaptive argument is measured against: ``QILIN`` (train-once, frozen
    splits) and ``STATIC_PEAK`` (the full framework but with GSplit pinned to
    the peak-trained value — the configuration that cannot react to faults).
    """

    CPU = "cpu"
    ACMLG = "acmlg"
    ACMLG_ADAPTIVE = "acmlg_adaptive"
    ACMLG_PIPE = "acmlg_pipe"
    ACMLG_BOTH = "acmlg_both"
    QILIN = "qilin"
    STATIC_PEAK = "static_peak"

    # Full string interchangeability: members format, compare AND hash as
    # their key, so dicts keyed by one are reachable by the other.
    __str__ = str.__str__
    __hash__ = str.__hash__

    @property
    def label(self) -> str:
        """The paper-facing display name (``ACMLG+both``, ``Qilin``, ...)."""
        return CONFIG_LABELS[self.value]

    @property
    def analytic(self) -> AnalyticConfig:
        """The :class:`AnalyticConfig` this configuration runs (seed unset)."""
        return _ANALYTIC[self]

    @classmethod
    def parse(cls, value: "str | Configuration") -> "Configuration":
        """Validate *value* into a member; clear error on unknown keys."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            valid = ", ".join(member.value for member in cls)
            raise ValueError(
                f"unknown configuration {value!r}; valid configurations: {valid}"
            ) from None


_ANALYTIC: dict[Configuration, AnalyticConfig] = {
    member: HPL_BUILDS[member.value] for member in Configuration
}


def validate_overrides(overrides: Optional[dict]) -> dict:
    """Check *overrides* keys against :class:`AnalyticConfig`'s fields.

    Returns a plain dict safe to splat into ``dataclasses.replace``; a typo'd
    key raises a :class:`ValueError` listing the valid field names instead of
    the opaque ``TypeError`` ``replace`` would produce.
    """
    if not overrides:
        return {}
    valid = {f.name for f in fields(AnalyticConfig)}
    unknown = sorted(set(overrides) - valid)
    if unknown:
        raise ValueError(
            f"unknown AnalyticConfig override(s): {', '.join(unknown)}; "
            f"valid fields: {', '.join(sorted(valid))}"
        )
    return dict(overrides)


@dataclass(frozen=True)
class HplConfig:
    """A full Linpack run description (the HPL.dat essentials)."""

    n: int
    grid: ProcessGrid
    analytic: AnalyticConfig

    @property
    def nb(self) -> int:
        return self.analytic.nb


@dataclass
class LinpackResult:
    """One Linpack measurement."""

    configuration: str
    n: int
    grid: tuple[int, int]
    gflops: float
    elapsed: float
    analytic: AnalyticResult

    @property
    def tflops(self) -> float:
        return self.gflops / 1e3

    @property
    def degraded(self) -> Optional[DegradedMode]:
        """Fault summary of the run; ``None`` when nothing ever degraded."""
        return self.analytic.degraded


def _analytic_for(
    scheduler: "str | Configuration",
    cluster: Cluster,
    grid: ProcessGrid,
    seed: int,
    overrides: Optional[dict] = None,
    faults: Optional[FaultSpec] = None,
) -> AnalyticHpl:
    _, build = resolve_hpl_build(scheduler)
    config = replace(build, seed=seed)
    if overrides:
        config = replace(config, **validate_overrides(overrides))
    return AnalyticHpl(
        cluster.rate_table(),
        grid,
        cluster.spec.interconnect,
        variability=cluster.spec.variability,
        config=config,
        faults=faults,
    )


def _run_linpack(
    scheduler: "str | Configuration",
    n: int,
    cluster: Cluster,
    grid: ProcessGrid,
    seed: int = 7,
    collect_steps: bool = False,
    overrides: Optional[dict] = None,
    progress=None,
    telemetry=None,
    faults: Optional[FaultSpec] = None,
) -> LinpackResult:
    """The driver's run implementation (see :class:`repro.session.Session`).

    *scheduler* is any HPL-capable scheduler spec — a registry name, a
    legacy :class:`Configuration` key, or a
    :class:`~repro.sched.base.Scheduler` instance.  *progress* is called
    with each panel's :class:`~repro.hpl.analytic.StepTrace`.  *telemetry*
    records per-panel spans and running-GFLOPS series; when None, the
    ambient :func:`repro.obs.current` telemetry (installed by e.g. ``python
    -m repro.bench ... --trace-out``) is used, so benchmark figures emit
    traces without any per-figure wiring.  Neither hook affects results.
    """
    name, _ = resolve_hpl_build(scheduler)
    if telemetry is None:
        telemetry = obs.current()
    stepper = _analytic_for(scheduler, cluster, grid, seed, overrides, faults)
    result = stepper.run(n, collect_steps=collect_steps, progress=progress, telemetry=telemetry)
    if telemetry is not None:
        telemetry.metrics.series(
            "hpl.final_gflops", "final GFLOPS per completed run"
        ).append(n, result.gflops, configuration=name)
    return LinpackResult(
        configuration=name,
        n=n,
        grid=(grid.nprow, grid.npcol),
        gflops=result.gflops,
        elapsed=result.elapsed,
        analytic=result,
    )


def single_element_cluster(
    gpu_clock_mhz: float = STANDARD_CLOCK_MHZ,
    variability: Optional[VariabilitySpec] = None,
    seed: int = 2009,
) -> Cluster:
    """A one-cabinet cluster whose element 0 is the single-element testbed.

    The element-to-element static spread is zeroed so single-element results
    describe the *nominal* element (the paper benchmarks one physical node).
    """
    from dataclasses import replace as _replace

    var = variability if variability is not None else VariabilitySpec()
    var = _replace(var, element_spread_sigma=0.0)
    spec = tianhe1_cluster(cabinets=1, gpu_clock_mhz=gpu_clock_mhz, variability=var)
    return Cluster(spec, seed=seed)
