"""``query-hot``: cached what-if queries, closed loop, threaded server.

Two clients (the container's two cores) loop over a Zipf mix of 64 fixed
modelling requests against ``caladrius serve`` with its default config.
One untimed pass warms the cache first, so nearly every timed request is
a cache hit: transport (``repro.api``) and ``repro.serving`` do the work,
calibration almost none.  Every answer is compared with the same request
handled in-process by a serving-disabled ``CaladriusApp``.
"""

from __future__ import annotations

import bisect
import itertools
import random
import threading
import time

from repro.api.client import CaladriusClient
from repro.errors import ApiError

from perfbench import prepare, procs
from perfbench.common import Context, Outcome
from perfbench.layers import TracedPhase, serving_delta
from perfbench.queries import Query, references
from perfbench.tracing import load_spans, spans_in

TOPOLOGIES = list(prepare.CATALOGUE)
CLIENTS = 2
ZIPF_EXPONENT = 1.1
SWEEP_PLANS = 32
#: Fixed tail percentile; ~45 req/s per client puts well over 100
#: samples beyond it in a 10 s phase.
TAIL_PCT = 90.0


def _plan(rng: random.Random, bolts: list[str]) -> tuple:
    return tuple((bolt, rng.randint(1, 8)) for bolt in bolts)


def build_queries(seed: int) -> list[Query]:
    """8 requests per topology: 5 predictions, 2 forecasts, 1 sweep."""
    queries = []
    for name in TOPOLOGIES:
        dep = prepare.deployment(name)
        rng = random.Random(prepare.derive(seed, name, "queries"))
        bolts = dep.bolts()
        base = dep.base_rate_tpm
        factors = rng.sample([0.6, 0.8, 1.0, 1.2, 1.5, 1.8, 2.2], 4)
        for index, factor in enumerate(factors):
            parallelisms = None
            if index % 2:
                bolt = rng.choice(bolts)
                parallelisms = (
                    (bolt, dep.topology.components[bolt].parallelism + 1),
                )
            queries.append(
                Query(
                    "performance",
                    name,
                    source_rate=float(round(factor * base)),
                    parallelisms=parallelisms,
                )
            )
        queries.append(Query("performance", name))  # forecast-driven
        queries.append(Query("traffic", name, horizon_minutes=30))
        queries.append(Query("traffic", name, horizon_minutes=60))
        queries.append(
            Query(
                "plan_sweep",
                name,
                source_rate=float(round(1.2 * base)),
                plans=tuple(_plan(rng, bolts) for _ in range(SWEEP_PLANS)),
            )
        )
    return queries


def zipf_weights(count: int, seed: int) -> list[float]:
    """Zipf popularity over ``count`` items, ranks shuffled by the seed."""
    ranks = list(range(count))
    random.Random(prepare.derive(seed, "zipf")).shuffle(ranks)
    return [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in ranks]


def run(ctx: Context, seconds: float, traced: bool, boots: int) -> Outcome:
    prepared = ctx.path("prepared")
    prepare.prepare_data_dir(prepared, TOPOLOGIES, ctx.seed)
    queries = build_queries(ctx.seed)
    reference = references(
        prepare.copy_data_dir(prepared, ctx.path("reference")), queries
    )
    cumulative = list(itertools.accumulate(zipf_weights(len(queries), ctx.seed)))

    service, setup = procs.boot(ctx, prepared, boots, traced)
    problems: list[str] = []
    try:
        clients = [
            CaladriusClient("127.0.0.1", service.port, retries=0)
            for _ in range(CLIENTS)
        ]
        for query in queries:  # untimed warm-up, one pass
            if query.call(clients[0]) != reference[query]:
                problems.append(f"warm-up answer differs: {query.kind} "
                                f"{query.topology}")
        before = clients[0].serving_stats()
        rtts: list[list[float]] = [[] for _ in clients]
        failures = [0] * CLIENTS
        mismatches = [0] * CLIENTS
        cpu_before = service.cpu_seconds()
        start = time.monotonic()
        deadline = start + seconds

        def loop(index: int) -> None:
            client = clients[index]
            rng = random.Random(prepare.derive(ctx.seed, "client", index))
            total = cumulative[-1]
            while time.monotonic() < deadline:
                query = queries[
                    bisect.bisect_right(cumulative, rng.random() * total)
                ]
                sent = time.monotonic()
                try:
                    answer = query.call(client)
                except ApiError:
                    failures[index] += 1
                    continue
                rtts[index].append(time.monotonic() - sent)
                if answer != reference[query]:
                    mismatches[index] += 1

        threads = [
            threading.Thread(target=loop, args=(i,)) for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        finished = time.monotonic()
        sut_cpu_s = service.cpu_seconds() - cpu_before
        after = clients[0].serving_stats()
        for client in clients:
            client.close()
        rss = service.peak_rss_mb()
    except BaseException:
        service.kill()
        raise
    service.stop()

    all_rtts = [rtt for per_client in rtts for rtt in per_client]
    warm_up_failures = len(problems)
    attempted = len(queries) + len(all_rtts) + sum(failures)
    if sum(mismatches):
        problems.append(f"{sum(mismatches)} answers differ from the reference")
    delta = serving_delta(before, after)
    outcome = Outcome(
        op_ms=[1e3 * rtt for rtt in all_rtts],
        tail_pct=TAIL_PCT,
        ops_per_s=len(all_rtts) / (finished - start),
        setup_s=setup,
        sut_rss_mb=rss,
        attempted=attempted,
        failed=warm_up_failures + sum(failures) + sum(mismatches),
        problems=problems,
        report={
            "serving.hit_ratio": (
                delta["hits"] / delta["requests"] if delta["requests"] else 0.0,
                "ratio",
            ),
        },
    )
    if traced:
        spans = load_spans(str(service.trace_out))
        outcome.traced = TracedPhase(
            sut_spans=spans_in(spans, start, finished),
            sut_cpu_s=sut_cpu_s,
            recover_spans=spans,
            rtts=all_rtts,
            queries=len(all_rtts),
            serving_delta=delta,
        )
    return outcome
