"""Seeded inputs: prepared data dirs and the streams that continue them.

Every topology comes from a fixed catalogue (Word Count plus generated
shapes from ``repro.workloads``), so runs on different seeds exercise the
same structures; the seed drives everything else — each topology's
simulation noise, its history of source rates, the rate it continues at
and the request mix the workloads draw from.

A data dir is built the way an operator's would be: the public simulator
writes ``HISTORY_MINUTES`` minutes into a store opened with
``open_data_dir``, and ``CheckpointManager.checkpoint()`` snapshots it.
:class:`MinuteStream` takes over a simulation that wrote the data dir
and keeps it running into a store of its own, so each minute it yields
is the contiguous next minute of every series the data dir holds.
"""

from __future__ import annotations

import random
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.durability import CheckpointManager, open_data_dir
from repro.heron.simulation import HeronSimulation, SimulationConfig
from repro.heron.wordcount import WordCountParams, build_word_count
from repro.timeseries.store import MetricsStore
from repro.workloads import generate_workload

#: Minutes of metrics every prepared topology starts with: two hours,
#: the trailing window the configuration example of
#: ``repro.config.load_config`` gives the stats-summary traffic model.  The
#: models calibrate and fit on the whole history, so this sets the cost
#: of every uncached prediction.  An ingest-query run of 20 s appends at
#: most 14 minutes to each of its topologies; BASELINE.md measures how
#: much that growth moves the op latency.
HISTORY_MINUTES = 120

#: Source-rate levels of the history, as multiples of the base rate; the
#: seed shuffles their order.  The top levels saturate generated shapes.
HISTORY_FACTORS = (0.4, 0.7, 1.0, 1.3, 1.6, 1.9)

WORD_COUNT_BASE_TPM = 20e6

#: name -> (shape, generator seed); ``None`` shape is Word Count.
CATALOGUE: dict[str, tuple[str | None, int]] = {
    "word-count": (None, 0),
    "gen-diamond-1": ("diamond", 101),
    "gen-deep_chain-1": ("deep_chain", 102),
    "gen-fanin-1": ("fanin", 103),
    "gen-multi_spout-1": ("multi_spout", 104),
    "gen-diamond-2": ("diamond", 105),
    "gen-deep_chain-2": ("deep_chain", 106),
    "gen-fanin-2": ("fanin", 107),
}


def derive(seed: int, *labels: object) -> int:
    """A stable sub-seed for one purpose (CRC32, process-independent)."""
    text = ":".join(str(part) for part in (seed, *labels))
    return zlib.crc32(text.encode("utf8"))


@dataclass(frozen=True)
class Deployment:
    """One catalogue topology: the simulator triple plus its base rate."""

    name: str
    topology: Any
    packing: Any
    logic: Any
    base_rate_tpm: float

    def set_rate(self, simulation: HeronSimulation, rate_tpm: float) -> None:
        """Divide a topology-level rate evenly over the spouts."""
        spouts = self.topology.spouts()
        for spout in spouts:
            simulation.set_source_rate(spout.name, rate_tpm / len(spouts))

    def bolts(self) -> list[str]:
        return [bolt.name for bolt in self.topology.bolts()]


def deployment(name: str) -> Deployment:
    shape, generator_seed = CATALOGUE[name]
    if shape is None:
        topology, packing, logic = build_word_count(
            WordCountParams(splitter_parallelism=2, counter_parallelism=4)
        )
        return Deployment(name, topology, packing, logic, WORD_COUNT_BASE_TPM)
    generated = generate_workload(shape, generator_seed, name=name)
    return Deployment(
        name,
        generated.topology,
        generated.packing,
        generated.logic,
        generated.base_rate_tpm,
    )


def history_rates(seed: int, name: str, base_rate_tpm: float) -> list[float]:
    """The seeded per-minute source rates of a topology's history."""
    factors = list(HISTORY_FACTORS)
    random.Random(derive(seed, name, "history")).shuffle(factors)
    per_level = HISTORY_MINUTES // len(factors)
    return [f * base_rate_tpm for f in factors for _ in range(per_level)]


def current_rate(seed: int, name: str, base_rate_tpm: float) -> float:
    """The rate a topology runs at after its history (seeded)."""
    rng = random.Random(derive(seed, name, "current"))
    return base_rate_tpm * rng.uniform(0.8, 1.2)


def _simulate_history(
    dep: Deployment, store: MetricsStore, seed: int
) -> HeronSimulation:
    simulation = HeronSimulation(
        dep.topology,
        dep.packing,
        dep.logic,
        store,
        SimulationConfig(seed=derive(seed, dep.name, "sim")),
    )
    for rate in history_rates(seed, dep.name, dep.base_rate_tpm):
        dep.set_rate(simulation, rate)
        simulation.run(1)
    return simulation


def prepare_data_dir(
    path: Path, names: list[str], seed: int
) -> dict[str, HeronSimulation]:
    """Simulate each topology's history into a checkpointed data dir.

    Returns the simulations, paused after their last minute, for
    :class:`MinuteStream` to continue.
    """
    store, tracker = open_data_dir(path, fsync="never")
    simulations = {}
    try:
        for name in names:
            dep = deployment(name)
            simulations[name] = _simulate_history(dep, store, seed)
            tracker.register(dep.topology, dep.packing)
        CheckpointManager(store, tracker).checkpoint()
    finally:
        store.close()
    return simulations


def copy_data_dir(source: Path, target: Path) -> Path:
    """A fresh copy for one boot (a served dir is written to)."""
    shutil.copytree(source, target)
    return target


class MinuteStream:
    """The seeded simulation of one topology, continued a minute at a time.

    ``simulation`` is the one :func:`prepare_data_dir` returned for
    ``name``.  Its metrics go to a fresh in-memory store from here on (the
    data dir's store is closed), so the first minute yielded directly
    follows the dir's last minute.
    """

    def __init__(self, name: str, simulation: HeronSimulation, seed: int):
        self.deployment = deployment(name)
        self.name = name
        self.store = MetricsStore()
        self.simulation = simulation
        simulation.metrics.store = self.store
        self.rate_tpm = current_rate(seed, name, self.deployment.base_rate_tpm)
        self.deployment.set_rate(self.simulation, self.rate_tpm)
        self._seen: dict = {}

    def _series(self, key):
        return self.store.get(key.name, key.tag_dict())

    def next_minute(self) -> list[tuple[str, int, float, dict[str, str]]]:
        """``(name, ts, value, tags)`` of every sample of the next minute."""
        self.simulation.run(1)
        samples = []
        for key in self.store.keys():
            series = self._series(key)
            start = self._seen.get(key, 0)
            tags = key.tag_dict()
            for ts, value in zip(
                series.timestamps[start:], series.values[start:]
            ):
                samples.append((key.name, int(ts), float(value), tags))
            self._seen[key] = len(series)
        return samples
