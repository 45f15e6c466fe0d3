"""Per-layer metrics of a traced run, computed from its spans.

Every workload reports every metric; a layer the workload never calls
reads 0, which is the prediction for it (no work, nothing to move).
The metric names and units are those of ``BENCHMARK.json``'s
``per_layer`` list; ``run.py`` refuses a mismatch.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from perfbench import stats
from perfbench.tracing import Span, descendants, layer_self_times

LAYERS = (
    "api",
    "serving",
    "core",
    "forecasting",
    "timeseries",
    "durability",
    "sweep",
    "heron",
)

@dataclass
class TracedPhase:
    """What one traced phase observed, on both sides of the socket.

    ``sut_spans`` are already cut to the timed window; ``recover_spans``
    are the service's boot-time recovery spans, which precede it.
    ``sut_cpu_s`` is the CPU time the whole SUT process used in the
    window, traced or not.
    """

    sut_spans: Sequence[Span]
    sut_cpu_s: float = 0.0
    recover_spans: Sequence[Span] = ()
    rtts: Sequence[float] = ()
    encodes: Sequence[float] = ()
    queries: int = 0
    batches: int = 0
    serving_delta: Mapping[str, float] = field(default_factory=dict)
    lateness: Sequence[float] = ()


def serving_delta(before: Mapping, after: Mapping) -> dict[str, float]:
    """Change of the ``GET /serving/stats`` counters over a window."""
    keys = ("requests", "hits", "computations", "coalesced", "shed")
    return {key: after.get(key, 0) - before.get(key, 0) for key in keys}


def _named(spans: Sequence[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def _mean_ms(spans: Sequence[Span]) -> float:
    if not spans:
        return 0.0
    return 1e3 * sum(s.duration for s in spans) / len(spans)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(phase: TracedPhase, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric for one traced phase.

    ``layer.<name>.self_share`` is the CPU time the layer's spans spent
    outside their child spans, over the SUT process's CPU time in the
    window.  What no span covers (on the async server, the event loop's
    own request parsing and response writing) stays in the denominator,
    so the shares sum to less than 1.
    """
    spans = phase.sut_spans
    handles = _named(spans, "api.app.handle")
    calibrations = _named(spans, "core.calibrate")
    under_calibration = descendants(spans, "core.calibrate")
    aggregates = _named(spans, "timeseries.aggregate")
    artifact_calls = _named(spans, "sweep.artifact")
    builds = _named(spans, "sweep.artifact_build")
    kernels = _named(spans, "sweep.kernel")
    validations = _named(spans, "sweep.validate")
    simulations = _named(spans, "heron.run")
    delta = phase.serving_delta
    sim_seconds = sum(s.duration for s in simulations)
    validated = sum(s.size for s in validations)
    swept = sum(s.size for s in kernels)
    metrics = {
        "api.client.rtt_ms": (
            1e3 * sum(phase.rtts) / len(phase.rtts) if phase.rtts else 0.0
        ),
        "api.app.handle_ms": _mean_ms(handles),
        "api.transport_ms": 1e3 * stats.transport_split(
            phase.rtts, [s.duration for s in handles]
        ),
        "api.ingest.encode_ms": (
            1e3 * sum(phase.encodes) / len(phase.encodes)
            if phase.encodes
            else 0.0
        ),
        "api.ingest.decode_ms": _mean_ms(_named(spans, "api.ingest.decode")),
        "serving.execute_ms": _mean_ms(_named(spans, "serving.execute")),
        "serving.hit_ratio": _ratio(
            delta.get("hits", 0), delta.get("requests", 0)
        ),
        "serving.computations": float(delta.get("computations", 0)),
        "serving.coalesced": float(delta.get("coalesced", 0)),
        "serving.rejected": float(delta.get("shed", 0)),
        "core.calibrate_ms": _mean_ms(calibrations),
        "core.calibrations_per_query": _ratio(
            len(calibrations), phase.queries
        ),
        "core.predict_ms": _mean_ms(_named(spans, "core.predict")),
        "forecasting.predict_ms": _mean_ms(
            _named(spans, "forecasting.predict")
        ),
        "timeseries.apply_ms": _mean_ms(_named(spans, "timeseries.apply")),
        "timeseries.aggregate_ms": _mean_ms(aggregates),
        "timeseries.aggregate_calls_per_calibration": _ratio(
            sum(1 for s in aggregates if s.id in under_calibration),
            len(calibrations),
        ),
        "durability.ingest_frames_ms": _mean_ms(
            _named(spans, "durability.ingest_frames")
        ),
        "durability.wal_append_ms": _mean_ms(
            _named(spans, "durability.wal_append")
        ),
        "durability.fsyncs_per_batch": _ratio(
            len(_named(spans, "durability.fsync")), phase.batches
        ),
        "durability.recover_s": sum(
            s.duration for s in _named(phase.recover_spans, "durability.recover")
        ),
        "sweep.artifact_build_ms": _mean_ms(builds),
        "sweep.artifact_hit_ratio": (
            1.0 - len(builds) / len(artifact_calls) if artifact_calls else 0.0
        ),
        "sweep.kernel_ms_per_kplan": _ratio(
            1e3 * sum(s.duration for s in kernels), swept / 1e3
        ),
        "sweep.cpu_estimate_ms": _mean_ms(_named(spans, "sweep.cpu_estimate")),
        "sweep.validate_ms_per_plan": _ratio(
            1e3 * sum(s.duration for s in validations), validated
        ),
        "heron.sim_minutes_per_s": _ratio(
            sum(s.size for s in simulations), sim_seconds
        ),
        "loadgen.late_p99_ms": (
            1e3 * stats.percentile(phase.lateness, 99.0)
            if phase.lateness
            else 0.0
        ),
        "trace.overhead_ratio": overhead_ratio,
    }
    own = layer_self_times(spans)
    for name in LAYERS:
        metrics[f"layer.{name}.self_share"] = _ratio(
            own.get(name, 0.0), phase.sut_cpu_s
        )
    return metrics
