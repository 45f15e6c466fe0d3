"""Modelling requests, asked over HTTP or of an in-process reference."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.api.app import CaladriusApp
from repro.api.client import CaladriusClient
from repro.config import load_config
from repro.durability import open_data_dir


@dataclass(frozen=True)
class Query:
    """One modelling request; hashable, so it can key a reference table.

    ``parallelisms`` and ``plans`` are tuples of ``(component, n)`` pairs.
    """

    kind: str  # "performance" | "traffic" | "plan_sweep"
    topology: str
    source_rate: float | None = None
    parallelisms: tuple[tuple[str, int], ...] | None = None
    horizon_minutes: int = 60
    plans: tuple[tuple[tuple[str, int], ...], ...] | None = None

    def call(self, client: CaladriusClient) -> dict[str, Any]:
        """Ask the service through the stock client."""
        if self.kind == "performance":
            return client.performance(
                self.topology,
                source_rate=self.source_rate,
                parallelisms=(
                    dict(self.parallelisms) if self.parallelisms else None
                ),
                horizon_minutes=self.horizon_minutes,
            )
        if self.kind == "traffic":
            return client.traffic(
                self.topology, horizon_minutes=self.horizon_minutes
            )
        return client.plan_sweep(
            self.topology,
            self.source_rate,
            [dict(plan) for plan in self.plans],
        )

    def handle(self, app: CaladriusApp) -> tuple[int, dict[str, Any]]:
        """The same request through ``CaladriusApp.handle`` in-process."""
        if self.kind == "performance":
            body: dict[str, Any] = {}
            if self.source_rate is not None:
                body["source_rate"] = self.source_rate
            if self.parallelisms:
                body["parallelisms"] = dict(self.parallelisms)
            return app.handle(
                "POST",
                f"/model/topology/heron/{self.topology}",
                {"horizon_minutes": str(self.horizon_minutes)},
                body,
            )
        if self.kind == "traffic":
            return app.handle(
                "GET",
                f"/model/traffic/heron/{self.topology}",
                {"horizon_minutes": str(self.horizon_minutes)},
            )
        return app.handle(
            "POST",
            f"/model/plan_sweep/heron/{self.topology}",
            {},
            {
                "source_rate": self.source_rate,
                "plans": [dict(plan) for plan in self.plans],
            },
        )


def references(
    data_dir: Path, queries: list[Query]
) -> dict[Query, dict[str, Any]]:
    """Each query's answer from a serving-disabled in-process app.

    ``data_dir`` must be a private copy of the prepared dir: recovery
    through ``open_data_dir`` gives the reference the same data versions
    the service recovers, and sweep payloads embed them.
    """
    config = load_config({})
    config = replace(config, serving=replace(config.serving, enabled=False))
    store, tracker = open_data_dir(data_dir, fsync="never")
    app = CaladriusApp(config, tracker, store)
    try:
        table = {}
        for query in queries:
            status, payload = query.handle(app)
            if status != 200:
                raise RuntimeError(
                    f"reference {query.kind} {query.topology}: "
                    f"HTTP {status} {payload.get('error')}"
                )
            # Round-trip through JSON, as the HTTP answer does.
            table[query] = json.loads(json.dumps(payload))
        return table
    finally:
        app.shutdown()
        store.close()
