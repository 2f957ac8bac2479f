"""Span tracing around freqconn's public functions, done entirely from the
benchmark: each traced function is replaced, in every freqconn module that
holds it, by a wrapper that records a span (name, parent, start, end, ok).
Spans stay in memory; per-function call counts and self times are derived
from them after each traced ``cli.main`` call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import logging
import time
from dataclasses import dataclass, field
from typing import Callable

LAYERS = ("cli", "ingest", "varcore", "timedomain", "freqdomain", "dynamics")

TRACED = {
    "cli": ("main",),
    "ingest": ("load_ticks", "filter_calendar", "resample_grid", "bipower_variation",
               "build_panel", "read_panel_csv", "write_panel_csv"),
    "varcore": ("fit_var_values", "stability", "wold"),
    "timedomain": ("gfevd", "dy_measures"),
    "freqdomain": ("spectral_gfevd", "band_measures"),
    "dynamics": ("rolling_connectedness", "evaluate_measures", "bootstrap_bands",
                 "write_rolling_csv"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

COUNTERS = ("ingest.rows", "ingest.days_skipped", "varcore.eig.calls",
            "freqdomain.grid_bytes", "dynamics.windows", "dynamics.gap_windows")


@dataclass
class Span:
    name: str
    parent: int          # index into the span list, -1 for a root
    start: float
    end: float = 0.0
    ok: bool = False


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the time its direct
    children cover. Spans nest strictly (one thread), so children never
    overlap and their durations add."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


@dataclass
class Recorder:
    """Spans and counters of one traced call."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    _stack: list[int] = field(default_factory=list)

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append(Span(name, parent, self.clock()))

    def exit(self, ok: bool) -> None:
        span = self.spans[self._stack.pop()]
        span.end = self.clock()
        span.ok = ok

    def summary(self) -> dict[str, float]:
        """Per-call layer metrics: ``<span>.calls``, ``<span>.self_s``, the
        counters, and the replicate counts derived from spans under
        ``bootstrap_bands``."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = 0
            out[name + ".self_s"] = 0.0
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span.name + ".calls"] += 1
            out[span.name + ".self_s"] += own
        out.update(self.counters)
        boot = {i for i, s in enumerate(self.spans) if s.name == "dynamics.bootstrap_bands"}
        tried = sum(1 for s in self.spans
                    if s.parent in boot and s.name == "varcore.fit_var_values")
        done = sum(1 for s in self.spans
                   if s.parent in boot and s.name == "dynamics.evaluate_measures" and s.ok)
        out["dynamics.replicates"] = tried
        out["dynamics.replicates_skipped"] = tried - done
        return out

    def untraced_time(self, wall: float) -> float:
        """The part of a call's outer wall time that no span covers. The self
        times add up to the root spans by construction, so this is the time
        spent outside the traced root: the wrapper's own cost when
        ``cli.main`` is the only root, more if work escapes it."""
        return wall - sum(self_times(self.spans))


class _DaySkipCounter(logging.Handler):
    def __init__(self, counters: dict[str, float]):
        super().__init__(logging.WARNING)
        self.counters = counters

    def emit(self, record):
        if record.getMessage().startswith("day_skipped"):
            self.counters["ingest.days_skipped"] += 1


def _observe(name: str, result, rec: Recorder) -> None:
    if name == "ingest.load_ticks":
        rec.counters["ingest.rows"] += len(result)
    elif name == "freqdomain.spectral_gfevd":
        # computed from array shapes; not a measurement of memory traffic
        rec.counters["freqdomain.grid_bytes"] += result.numerator.nbytes + result.denominator.nbytes
    elif name == "dynamics.rolling_connectedness":
        rec.counters["dynamics.windows"] += result.n_windows
        rec.counters["dynamics.gap_windows"] += len(result.gaps)


class Tracer:
    """Installs the wrappers for the length of one ``recording()`` block."""

    def __init__(self):
        self.recorder: Recorder | None = None
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._handler: logging.Handler | None = None

    @contextlib.contextmanager
    def recording(self):
        self.recorder = Recorder()
        self._install()
        try:
            yield self.recorder
        finally:
            self._uninstall()
            self.recorder = None

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.recorder
            rec.enter(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                rec.exit(ok)
            _observe(name, result, rec)
            return result

        return traced

    def _install(self) -> None:
        self.missing = []
        modules = [importlib.import_module("freqconn")]
        modules += [importlib.import_module(f"freqconn.{layer}") for layer in LAYERS]
        for layer, fns in TRACED.items():
            home = importlib.import_module(f"freqconn.{layer}")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{layer}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        self._install_eig_counter()
        self._handler = _DaySkipCounter(self.recorder.counters)
        logging.getLogger("freqconn.ingest").addHandler(self._handler)

    def _install_eig_counter(self) -> None:
        from freqconn.varcore import VarModel

        prop = VarModel.__dict__.get("spectral_radius")
        if not isinstance(prop, property):
            self.missing.append("varcore.VarModel.spectral_radius")
            return
        counters = self.recorder.counters

        def spectral_radius(model):
            counters["varcore.eig.calls"] += 1
            return prop.fget(model)

        self._patches.append((VarModel, "spectral_radius", prop))
        VarModel.spectral_radius = property(spectral_radius, doc=prop.__doc__)

    def _uninstall(self) -> None:
        logging.getLogger("freqconn.ingest").removeHandler(self._handler)
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
