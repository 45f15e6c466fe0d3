"""Tests for the benchmark's own helpers (run: python -m pytest perfbench/tests)."""

from __future__ import annotations

import sys
import threading
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, procs, run, stats, tracing  # noqa: E402
from perfbench.tracing import Span  # noqa: E402


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),  # even the median has only 9 samples beyond it
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_supported_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.supported_percentile(count) == expected


def test_samples_beyond_counts_strictly_above():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(101, 90) == 10
    assert stats.samples_beyond(99, 90) == 9


def test_tail_reports_value_count_and_support():
    values = [float(v) for v in range(1, 41)]
    value, count, supported = stats.tail(values, 75)
    assert (count, supported) == (40, True)
    assert value == pytest.approx(stats.percentile(values, 75))
    assert stats.tail(values[:39], 75)[2] is False


def test_supported_tail_names_the_percentile_it_reports():
    values = [float(v) for v in range(100)]
    assert stats.supported_tail("ack", values) == {
        "ack_p90_ms": (stats.percentile(values, 90), "ms")
    }
    assert list(stats.supported_tail("ack", values[:5])) == ["ack_p50_ms"]


# ----------------------------------------------------------------------
# Open-loop timing
# ----------------------------------------------------------------------
def test_due_latency_charges_a_stall_to_every_queued_request():
    # Due every 0.25 s; the first request stalls 1 s, so the next three
    # go out late and finish in a burst right after it.
    due = [0.0, 0.25, 0.5, 0.75]
    sent = [0.0, 1.0, 1.01, 1.02]
    done = [1.0, 1.01, 1.02, 1.03]
    assert stats.due_latencies(due, done) == pytest.approx(
        [1.0, 0.76, 0.52, 0.28]
    )
    # Send-time latency would hide the queueing entirely.
    assert [d - s for s, d in zip(sent, done)][1:] == pytest.approx(
        [0.01, 0.01, 0.01]
    )
    assert stats.lateness(due, sent) == pytest.approx([0.0, 0.75, 0.51, 0.27])


def test_lateness_never_negative_and_lengths_must_match():
    assert stats.lateness([1.0], [0.9]) == [0.0]
    with pytest.raises(ValueError):
        stats.lateness([1.0], [])
    with pytest.raises(ValueError):
        stats.due_latencies([1.0, 2.0], [3.0])


# ----------------------------------------------------------------------
# Transport split
# ----------------------------------------------------------------------
def test_transport_split_is_rtt_minus_handle_per_request():
    rtts = [0.045, 0.044, 0.046]
    handles = [0.0005, 0.0004, 0.0006]
    expected = (sum(rtts) - sum(handles)) / 3
    assert stats.transport_split(rtts, handles) == pytest.approx(expected)
    assert stats.transport_split([], handles) == 0.0


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def _span(id_, parent, name, layer, start, end, size=1):
    # CPU clock = wall clock, as for a thread that never waits.
    return Span(id_, parent, name, layer, start, end, size, start, end)


def test_self_time_subtracts_children_once():
    spans = [
        _span(1, None, "api.app.handle", "api", 0.0, 10.0),
        _span(2, 1, "serving.execute", "serving", 1.0, 9.0),
        _span(3, 2, "core.calibrate", "core", 2.0, 5.0),
        _span(4, 2, "core.calibrate", "core", 5.0, 8.0),
        _span(5, 3, "timeseries.aggregate", "timeseries", 2.0, 3.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 2.0, 2: 2.0, 3: 2.0, 4: 3.0, 5: 1.0})
    assert tracing.layer_self_times(spans) == pytest.approx(
        {"api": 2.0, "serving": 2.0, "core": 5.0, "timeseries": 1.0}
    )
    # Self times partition the root span.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_and_clips_escaping_children():
    spans = [
        _span(1, None, "job", "bench", 0.0, 10.0),
        _span(2, 1, "a", "sweep", 1.0, 4.0),
        _span(3, 1, "b", "sweep", 3.0, 6.0),  # overlaps the first
        _span(4, 1, "c", "heron", 9.0, 12.0),  # ends after its parent
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_is_cpu_time_and_ignores_waiting():
    # The parent spends 10 s (wall) but burns 3 s of CPU, 2 s of it in
    # its child; the waits count for neither.
    spans = [
        Span(1, None, "api.app.handle", "api", 0.0, 10.0, 1, 0.0, 3.0),
        Span(2, 1, "core.calibrate", "core", 1.0, 4.0, 1, 0.5, 2.5),
    ]
    assert tracing.self_times(spans) == pytest.approx({1: 1.0, 2: 2.0})
    assert tracing.layer_self_times(spans) == pytest.approx(
        {"api": 1.0, "core": 2.0}
    )


def test_recorder_reads_the_thread_cpu_clock():
    recorder = tracing.Recorder()

    def burn():
        deadline = time.thread_time() + 0.02
        while time.thread_time() < deadline:
            pass

    recorder.wrap(burn, "burn", "core")()
    recorder.wrap(lambda: time.sleep(0.05), "nap", "core")()
    burned, napped = recorder.spans
    assert burned.cpu_end - burned.cpu_start >= 0.02
    assert napped.duration >= 0.05
    assert napped.cpu_end - napped.cpu_start < 0.02


def test_process_cpu_seconds_grows_with_work():
    before = procs.cpu_seconds("self")
    deadline = time.process_time() + 0.05
    while time.process_time() < deadline:
        pass
    assert procs.cpu_seconds("self") - before >= 0.03


def test_descendants_follow_the_whole_subtree():
    spans = [
        _span(1, None, "core.calibrate", "core", 0, 4),
        _span(2, 1, "timeseries.aggregate", "timeseries", 0, 1),
        _span(3, 2, "x", "timeseries", 0, 0.5),
        _span(4, None, "timeseries.aggregate", "timeseries", 5, 6),
    ]
    assert tracing.descendants(spans, "core.calibrate") == {2, 3}


def test_recorder_links_parents_per_thread():
    recorder = tracing.Recorder()

    def inner():
        return 1

    traced_inner = recorder.wrap(inner, "inner", "core")
    traced_outer = recorder.wrap(lambda: traced_inner(), "outer", "api")
    traced_outer()
    worker = threading.Thread(target=traced_inner)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    by_name: dict[str, list[Span]] = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    (outer,) = by_name["outer"]
    nested, threaded = sorted(by_name["inner"], key=lambda s: s.start)
    assert nested.parent == outer.id
    assert threaded.parent is None  # another thread's stack


def test_recorder_records_failing_calls_and_sizes(tmp_path):
    recorder = tracing.Recorder()

    def boom(items):
        raise KeyError("x")

    traced = recorder.wrap(boom, "boom", "core", size=lambda items: len(items))
    with pytest.raises(KeyError):
        traced([1, 2, 3])
    (span,) = recorder.spans
    assert span.size == 3
    path = tmp_path / "spans.json"
    recorder.dump(str(path))
    assert tracing.load_spans(str(path)) == recorder.spans


def test_install_replaces_reexported_functions_and_methods(monkeypatch):
    home = types.ModuleType("repro_perfbench_home")
    user = types.ModuleType("repro_perfbench_user")
    # Defined in the module's own namespace, so Engine.run looks helper
    # up as a module global, the way program code does.
    exec(
        "def helper(items):\n"
        "    return len(items)\n"
        "class Engine:\n"
        "    def run(self, n):\n"
        "        return helper([0] * n)\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        return cls()\n",
        home.__dict__,
    )
    Engine = home.Engine
    user.helper = home.helper  # as ``from repro_perfbench_home import helper``
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    recorder = tracing.Recorder()
    targets = [
        (home.__name__, "helper", "t.helper", "core", None),
        (home.__name__, "Engine.run", "t.run", "sweep", None),
        (home.__name__, "Engine.build", "t.build", "sweep", None),
    ]
    replaced = tracing.install(recorder, targets)
    assert replaced == 4
    assert user.helper is home.helper
    assert Engine.build().run(3) == 3
    assert user.helper([1]) == 1
    names = [s.name for s in recorder.spans]
    assert names.count("t.helper") == 2
    assert "t.build" in names and "t.run" in names


# ----------------------------------------------------------------------
# Per-layer report
# ----------------------------------------------------------------------
def test_per_layer_reports_every_metric_and_zero_for_idle_layers():
    spans = [
        _span(1, None, "api.app.handle", "api", 0.0, 0.010),
        _span(2, 1, "serving.execute", "serving", 0.001, 0.009),
        _span(3, 2, "core.calibrate", "core", 0.002, 0.006),
        _span(4, 3, "timeseries.aggregate", "timeseries", 0.002, 0.003),
        _span(5, 3, "timeseries.aggregate", "timeseries", 0.003, 0.004),
    ]
    phase = layers.TracedPhase(
        sut_spans=spans,
        sut_cpu_s=0.020,  # half the process's CPU ran outside any span
        rtts=[0.050],
        queries=1,
        serving_delta={"requests": 4, "hits": 3, "computations": 1},
    )
    metrics = layers.per_layer(phase, overhead_ratio=1.02)
    assert set(metrics) == set(run.metric_units("per_layer"))
    assert metrics["api.transport_ms"] == pytest.approx(40.0)
    assert metrics["serving.hit_ratio"] == pytest.approx(0.75)
    assert metrics["core.calibrations_per_query"] == 1.0
    assert metrics["timeseries.aggregate_calls_per_calibration"] == 2.0
    assert metrics["layer.api.self_share"] == pytest.approx(0.1)
    assert metrics["layer.core.self_share"] == pytest.approx(0.1)
    assert metrics["layer.timeseries.self_share"] == pytest.approx(0.1)
    assert metrics["heron.sim_minutes_per_s"] == 0.0
    assert metrics["trace.overhead_ratio"] == 1.02


# ----------------------------------------------------------------------
# Result format
# ----------------------------------------------------------------------
def test_result_metrics_are_exactly_those_of_benchmark_json():
    units = run.metric_units("end_to_end")
    assert "setup_s" in units and units["setup_s"] == "s"
    values = {name: 1.0 for name in units}
    metrics = run.select(values, units)
    assert list(metrics) == list(units)
    assert all(entry["unit"] == units[name] for name, entry in metrics.items())
    with pytest.raises(ValueError, match="extra_ms"):
        run.select({**values, "extra_ms": 1.0}, units)
    with pytest.raises(ValueError, match="setup_s"):
        run.select({k: v for k, v in values.items() if k != "setup_s"}, units)
