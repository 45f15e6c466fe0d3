"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program: :func:`install` swaps a timing
wrapper in for each public function or method named in
:data:`SUT_TARGETS`, in every loaded ``repro`` module that holds it, so
``from x import f`` call sites are covered too.  Spans carry a parent
(the span open on the same thread when it started), which is what
:func:`self_times` needs to charge each layer only for its own time.

Each span carries two clocks.  Wall time is ``time.monotonic``
(CLOCK_MONOTONIC on Linux), so spans from the service process and the
load generator share one time axis.  CPU time is ``time.thread_time``
of the calling thread; children run on their parent's thread, so a
span's CPU interval contains its children's, and a layer's own CPU time
can be compared with the whole process's CPU time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

__all__ = [
    "Span",
    "Recorder",
    "SUT_TARGETS",
    "install",
    "load_spans",
    "spans_in",
    "self_times",
    "layer_self_times",
    "descendants",
]


@dataclass(frozen=True)
class Span:
    """One timed call: ``size`` is its work count (plans, minutes...).

    ``cpu_start``/``cpu_end`` read the calling thread's CPU clock.
    """

    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    size: int = 1
    cpu_start: float = 0.0
    cpu_end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        size: Callable[..., int] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call (exceptions included)."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu_start = time.thread_time()
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                cpu_end = time.thread_time()
                stack.pop()
                count = size(*args, **kwargs) if size is not None else 1
                self.spans.append(
                    Span(span_id, parent, name, layer, start, end, count,
                         cpu_start, cpu_end)
                )

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path: str) -> None:
        """Write every span as one JSON list."""
        rows = [
            [s.id, s.parent, s.name, s.layer, s.start, s.end, s.size,
             s.cpu_start, s.cpu_end]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf8") as handle:
            json.dump(rows, handle)


def load_spans(path: str) -> list[Span]:
    """Spans written by :meth:`Recorder.dump`."""
    with open(path, encoding="utf8") as handle:
        return [Span(*row) for row in json.load(handle)]


def _arg(index: int, name: str) -> Callable[..., int]:
    """Size = len() of one positional/keyword argument."""

    def size(*args: Any, **kwargs: Any) -> int:
        value = kwargs[name] if name in kwargs else args[index]
        return len(value)

    return size


def _minutes(*args: Any, **kwargs: Any) -> int:
    # HeronSimulation.run(self, minutes): minutes may be fractional.
    value = kwargs.get("minutes", args[1] if len(args) > 1 else 0)
    return int(round(float(value)))


#: (module, attribute path, span name, layer, size) wrapped in the SUT.
#: Layers are the repro package the call lands in, except the traffic
#: models' ``predict``: it lives in repro.core but its cost is the
#: forecaster's fit, so it is charged to ``forecasting``; and the
#: standard library's HTTP request handler, which ``repro.api.server``
#: subclasses, charged to ``api``.
SUT_TARGETS: tuple[tuple[str, str, str, str, Any], ...] = (
    # The threaded server's per-request entry point (HTTP parsing,
    # routing, response writing); its CPU time between requests is ~0.
    ("http.server", "BaseHTTPRequestHandler.handle_one_request",
     "api.request", "api", None),
    ("repro.api.app", "CaladriusApp.handle", "api.app.handle", "api", None),
    ("repro.api.ingest", "decode_frames", "api.ingest.decode", "api", None),
    ("repro.serving.layer", "ServingLayer.execute", "serving.execute",
     "serving", None),
    ("repro.core.performance_models", "calibrate_topology",
     "core.calibrate", "core", None),
    ("repro.core.performance_models", "ThroughputPredictionModel.predict",
     "core.predict", "core", None),
    ("repro.core.performance_models", "BackpressureEvaluationModel.predict",
     "core.predict", "core", None),
    ("repro.core.traffic_models", "ProphetTrafficModel.predict",
     "forecasting.predict", "forecasting", None),
    ("repro.core.traffic_models", "StatsSummaryTrafficModel.predict",
     "forecasting.predict", "forecasting", None),
    ("repro.timeseries.store", "MetricsStore.apply_sample_batch",
     "timeseries.apply", "timeseries", None),
    ("repro.timeseries.store", "MetricsStore.aggregate",
     "timeseries.aggregate", "timeseries", None),
    ("repro.timeseries.store", "MetricsStore.aggregate_complete",
     "timeseries.aggregate", "timeseries", None),
    ("repro.durability.store", "DurableMetricsStore.ingest_frames",
     "durability.ingest_frames", "durability", None),
    ("repro.durability.wal", "WriteAheadLog.append_bodies",
     "durability.wal_append", "durability", None),
    ("os", "fsync", "durability.fsync", "durability", None),
    ("repro.durability.recovery", "open_data_dir", "durability.recover",
     "durability", None),
    ("repro.sweep.engine", "PlanSweepEngine.sweep", "sweep.sweep", "sweep",
     None),
    ("repro.sweep.engine", "PlanSweepEngine.artifact", "sweep.artifact",
     "sweep", None),
    ("repro.sweep.artifact", "CalibrationArtifact.build",
     "sweep.artifact_build", "sweep", None),
    ("repro.sweep.kernel", "evaluate_plans", "sweep.kernel", "sweep",
     _arg(2, "plans")),
    ("repro.sweep.kernel", "estimate_plan_cpu", "sweep.cpu_estimate",
     "sweep", None),
    ("repro.sweep.pool", "validate_plans", "sweep.validate", "sweep",
     _arg(1, "plans")),
    ("repro.heron.simulation", "HeronSimulation.run", "heron.run", "heron",
     _minutes),
)


def install(
    recorder: Recorder,
    targets: Iterable[tuple[str, str, str, str, Any]] = SUT_TARGETS,
) -> int:
    """Wrap every target; returns how many bindings were replaced.

    Call after the program's modules are imported: module-level
    functions are replaced wherever a loaded module re-exports them.
    """
    import importlib

    replaced = 0
    for module_name, path, name, layer, size in targets:
        module = importlib.import_module(module_name)
        owner: Any = module
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(
                    recorder.wrap(raw.__func__, name, layer, size)
                )
            else:
                wrapped = recorder.wrap(raw, name, layer, size)
            setattr(owner, attr, wrapped)
            replaced += 1
            continue
        original = getattr(owner, attr)
        wrapped = recorder.wrap(original, name, layer, size)
        holders = [owner] + [
            mod
            for key, mod in list(sys.modules.items())
            if key.startswith("repro") and mod is not owner
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    replaced += 1
    return replaced


def spans_in(
    spans: Sequence[Span], start: float, end: float
) -> list[Span]:
    """Spans that started inside ``[start, end]``."""
    return [s for s in spans if start <= s.start <= end]


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Per span: its CPU time minus the part its children cover.

    Children are the spans whose ``parent`` is this span; their CPU
    intervals are clipped to the parent's and merged, so overlapping or
    out-of-range children are never subtracted twice.  CPU time, unlike
    wall time, leaves out a thread's waits, which overlap with other
    threads' work.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.cpu_start
        for child in sorted(
            children.get(span.id, ()), key=lambda c: c.cpu_start
        ):
            lo = max(child.cpu_start, cursor)
            hi = min(child.cpu_end, span.cpu_end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = max(0.0, span.cpu_end - span.cpu_start - covered)
    return result


def layer_self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Total self (CPU) time per layer, in seconds."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
    return totals


def descendants(spans: Sequence[Span], root_name: str) -> set[int]:
    """Ids of every span below any span named ``root_name``."""
    by_parent: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            by_parent.setdefault(span.parent, []).append(span)
    found: set[int] = set()
    frontier = [s.id for s in spans if s.name == root_name]
    while frontier:
        current = frontier.pop()
        for child in by_parent.get(current, ()):
            if child.id not in found:
                found.add(child.id)
                frontier.append(child.id)
    return found
