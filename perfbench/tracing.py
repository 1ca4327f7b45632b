"""Spans around calls into the program's public functions, recorded from
the benchmark's own files, plus a profile that splits the traced wall time
into per-package self times.

Two mechanisms, because the program has two shapes of code:

* **Spans** (:meth:`Tracer.wrap`): a wrapper installed around a public
  function or method records its count, total time and self time (its
  time minus the time of wrapped calls made inside it).  Only synchronous
  functions are wrapped, so spans nest on one stack even under asyncio.
  A few spans stay on in untraced runs because end-to-end metrics come
  from them (the session run of the paper cell, the DES factor call);
  each costs two clock reads per call.
* **Package self time** (:class:`PackageProfile`): sim and mpi run as
  generators inside ``Simulator.run`` and the service runs as coroutines,
  so a span around a call into them measures nothing useful.  The traced
  run therefore also samples the main thread's stack on a 1 ms wall-clock
  timer and charges the time since the previous sample to the innermost
  frame that belongs to a layer: the ``repro.<package>`` its file lives
  in, the benchmark's own files (``gen``), asyncio's callback dispatch
  (``loop``) or a blocking poll (``idle``); a load generator that yields
  to the loop while it waits for a due time counts as ``idle`` too.
  Standard-library, builtin and NumPy frames are skipped, so a package's
  self time includes the library code it calls directly.  A stack with no such frame is charged to
  ``trace.unattributed_s``; the self times plus that remainder add up to
  the traced wall time exactly.  Unlike ``cProfile``, the sampler costs
  the same per millisecond whatever the code does, so it does not inflate
  call-heavy layers (sim, mpi, the service) against NumPy-heavy ones.
"""

from __future__ import annotations

import functools
import os
import signal
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

_perf = time.perf_counter


class Span:
    __slots__ = ("count", "total", "self_time")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Installs span wrappers; :meth:`restore` takes them all out again."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = defaultdict(Span)
        self._stack: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        on_exit: Optional[Callable[..., None]] = None,
    ) -> None:
        """Wrap ``owner.attr`` (a module function or a class method).

        For a module function every ``repro.*`` module that imported it by
        name is rebound too.  *on_exit* is called as
        ``on_exit(seconds, args, kwargs, result)`` after each call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        span = self.spans[name]
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = _perf()
            stack.append(0.0)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = _perf() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.count += 1
                span.total += elapsed
                span.self_time += elapsed - children
            if on_exit is not None:
                on_exit(elapsed, args, kwargs, result)
            return result

        self._patch(owner, attr, original, wrapper)
        if not isinstance(owner, type):
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "") or ""
                if (
                    module is not owner
                    and module_name.startswith("repro")
                    and module.__dict__.get(attr) is original
                ):
                    self._patch(module, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def total(self, name: str) -> float:
        return self.spans[name].total if name in self.spans else 0.0

    def count(self, name: str) -> int:
        return self.spans[name].count if name in self.spans else 0

    def mean_ms(self, name: str) -> float:
        span = self.spans.get(name)
        return 1e3 * span.total / span.count if span and span.count else 0.0


# -- package self time -----------------------------------------------------------

_REPRO_LAYER = {
    "hpl": "hpl", "sched": "sched", "machine": "machine", "model": "machine",
    "core": "core", "blas": "core", "sim": "sim", "mpi": "mpi", "exec": "exec",
    "session": "session", "campaign": "campaign", "bench": "bench",
    "verify": "verify", "obs": "other_repro", "util": "other_repro",
    "faults": "other_repro",
}
SAMPLE_INTERVAL = 0.001


class PackageProfile:
    """Wall-clock stack sampler over a region, reduced to seconds per layer.

    Use as a context manager, in the main thread; regions may repeat.
    """

    def __init__(self, waiting: Optional[Callable[[], bool]] = None,
                 spin: tuple[str, ...] = ()) -> None:
        """*waiting*, if given, tells when a load generator is only waiting
        for its next due time; loop time and the *spin* functions' own time
        are then idle."""
        import asyncio
        import selectors

        import repro

        self.seconds: dict[str, float] = defaultdict(float)
        #: Seconds per innermost layer frame's code object (function self time).
        self.by_code: dict[Any, float] = defaultdict(float)
        self.wall = 0.0
        self._repro_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        self._bench_dir = os.path.dirname(os.path.abspath(__file__)) + os.sep
        self._selectors = os.path.abspath(selectors.__file__)
        self._asyncio_dir = os.path.dirname(os.path.abspath(asyncio.__file__)) + os.sep
        self._layers: dict[Any, Optional[str]] = {}
        self._started = self._last = 0.0
        self._previous: Any = None
        self._waiting = waiting
        self._spin = spin

    def _layer_of(self, code: Any) -> Optional[str]:
        layer = self._layers.get(code, False)
        if layer is not False:
            return layer
        path = os.path.abspath(code.co_filename)
        layer = None
        if path.startswith(self._repro_dir):
            rest = path[len(self._repro_dir):]
            package = rest.split(os.sep, 1)[0]
            layer = "hpl.dist" if rest == os.path.join("hpl", "dist.py") else _REPRO_LAYER.get(package, "other_repro")
        elif path.startswith(self._bench_dir):
            layer = "gen"
        elif path == self._selectors and code.co_name == "select":
            layer = "idle"
        elif path.startswith(self._asyncio_dir) and code.co_name in ("_run", "_run_once"):
            layer = "loop"
        self._layers[code] = layer
        return layer

    def _charge(self, frame: Any, seconds: float) -> None:
        while frame is not None:
            layer = self._layer_of(frame.f_code)
            if layer is not None:
                if (self._waiting is not None and (layer == "loop" or frame.f_code.co_name in self._spin)
                        and self._waiting()):
                    layer = "idle"
                self.seconds[layer] += seconds
                self.by_code[frame.f_code] += seconds
                return
            frame = frame.f_back
        self.seconds["unattributed"] += seconds

    def _sample(self, signum: int, frame: Any) -> None:
        # Move the mark before charging: a signal landing inside this
        # handler then charges only the time after it.
        now = _perf()
        seconds, self._last = now - self._last, now
        self._charge(frame, seconds)

    def __enter__(self) -> "PackageProfile":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._started = self._last = _perf()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        now = _perf()
        self._charge(sys._getframe(1), now - self._last)
        self.wall += now - self._started

    def top(self, count: int = 12) -> list[tuple[str, float]]:
        """The *count* functions with the most self time, as ``(where, seconds)``."""
        ranked = sorted(self.by_code.items(), key=lambda item: -item[1])[:count]
        return [(f"{self._layers.get(code)}:{os.path.basename(code.co_filename)}:"
                 f"{code.co_name}", round(seconds, 4)) for code, seconds in ranked]

    def function_self(self, filename_suffix: str, func: str) -> float:
        """Self seconds of the functions named *func* in files ending *filename_suffix*."""
        return sum(seconds for code, seconds in self.by_code.items()
                   if code.co_name == func and code.co_filename.endswith(filename_suffix))


LAYER_METRICS = {
    "hpl": "hpl.self_s", "hpl.dist": "hpl.dist_self_s", "sched": "sched.self_s",
    "machine": "machine.self_s", "core": "core.self_s", "sim": "sim.self_s",
    "mpi": "mpi.self_s", "exec": "exec.self_s", "session": "session.self_s",
    "campaign": "campaign.self_s", "bench": "bench.self_s", "verify": "verify.self_s",
    "other_repro": "other_repro.self_s", "gen": "gen.self_s", "loop": "loop.self_s",
    "idle": "idle.self_s",
}


def layer_metrics(profile: PackageProfile) -> dict[str, float]:
    """Per-layer self seconds + the traced wall and its unattributed rest."""
    out = {metric: profile.seconds.get(layer, 0.0) for layer, metric in LAYER_METRICS.items()}
    out["trace.wall_s"] = profile.wall
    out["trace.unattributed_s"] = profile.wall - sum(out[m] for m in LAYER_METRICS.values())
    return out


def trace_details(profile: PackageProfile) -> dict[str, Any]:
    """Shares of the traced wall per layer, and the hottest functions."""
    wall = profile.wall or 1.0
    shares = {layer: round(seconds / wall, 4) for layer, seconds in
              sorted(profile.seconds.items(), key=lambda item: -item[1])}
    return {"layer_share_of_traced_wall": shares, "top_functions": profile.top()}
