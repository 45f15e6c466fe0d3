"""Summary statistics shared by every workload.

Every rule here is pure (lists of floats in, numbers out) so the tests
in ``perfbench/tests`` can pin it down without a running service.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is supported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    return float(
        ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    )


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly above ``pct``."""
    return count - math.ceil(count * pct / 100.0)


def supported_percentile(count: int) -> float | None:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it.

    ``None`` when even the median is unsupported (fewer than 20 samples).
    """
    best = None
    for pct in PERCENTILE_LADDER:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best


def tail(values: Sequence[float], pct: float) -> tuple[float, int, bool]:
    """``(value, sample count, supported)`` for a workload's fixed tail.

    Each workload fixes its tail percentile so the metric means the same
    thing from run to run; ``supported`` says whether this run's sample
    count gives it at least ``MIN_BEYOND`` samples beyond.
    """
    return (
        percentile(values, pct),
        len(values),
        samples_beyond(len(values), pct) >= MIN_BEYOND,
    )


def supported_tail(
    prefix: str, values_ms: Sequence[float]
) -> dict[str, tuple[float, str]]:
    """``{"<prefix>_p<N>_ms": (value, "ms")}`` at the supported percentile.

    For figures printed beside the result: the name carries the
    percentile the sample supports (the median below 20 samples).
    """
    pct = supported_percentile(len(values_ms)) or 50.0
    return {f"{prefix}_p{pct:g}_ms": (percentile(values_ms, pct), "ms")}


def due_latencies(
    due: Sequence[float], done: Sequence[float]
) -> list[float]:
    """Open-loop latency: completion minus the time the op was *due*.

    Measuring from the due time (not the send time) charges a stall to
    every request queued behind it, which send-time latency hides.
    """
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [end - start for start, end in zip(due, done)]


def lateness(due: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How late the generator issued each op (never negative)."""
    if len(due) != len(sent):
        raise ValueError("due and sent must pair up")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def transport_split(
    rtts: Sequence[float], handles: Sequence[float]
) -> float:
    """Mean per-request time spent outside ``CaladriusApp.handle``.

    ``sum(rtts)/N - sum(handles)/M``: the serialization, socket and
    server-thread share of one request.  With every request traced on
    both sides (N == M) this is ``(sum RTT - sum handle) / N``; taking
    the means keeps it exact when a window edge drops a span on one side.
    """
    if not rtts or not handles:
        return 0.0
    return sum(rtts) / len(rtts) - sum(handles) / len(handles)


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)
