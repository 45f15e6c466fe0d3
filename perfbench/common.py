"""What every workload hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from perfbench.layers import TracedPhase

#: Boots per measured run; ``setup_s`` is their median.
SETUP_BOOTS = 3


@dataclass
class Context:
    """Per-run settings: the seed and a private scratch directory."""

    seed: int
    workdir: Path
    _counter: int = 0

    def path(self, stem: str) -> Path:
        """A fresh, unique path inside the scratch directory."""
        self._counter += 1
        return self.workdir / f"{self._counter:03d}-{stem}"


@dataclass
class Outcome:
    """One phase's result: end-to-end numbers, checks and, if traced, spans.

    ``op_ms`` holds the latency of every completed op of the workload's
    kind (see README); ``report`` holds further named figures printed
    beside the result, as ``name -> (value, unit)``.
    """

    op_ms: list[float]
    tail_pct: float
    ops_per_s: float
    setup_s: list[float]
    sut_rss_mb: float
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    traced: TracedPhase | None = None
