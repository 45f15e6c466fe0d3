"""``ingest-query``: fresh minutes written beside the queries they feed.

The service runs ``serve`` with ``ingest.async_api: true`` (default
fsync).  An open-loop writer sends one ``write_batch`` every
``1 / BATCH_RATE`` seconds; each batch is the contiguous next minute of
every series of one topology, from the same seeded simulation that
built the data dir.  A closed-loop client then asks the just-written
topology its autoscaler questions: performance at the current rate, a
forecast-driven performance request and a traffic forecast.  Each write
bumps ``data_version``, so every question recalibrates: ingest,
durability, timeseries, core and forecasting carry the load.

The op is a *fresh prediction*: from the batch's due time to the
completion of the first prediction on its topology issued after its
ack.  After the run the service's ``/cluster/state_hash`` must equal the
content hash of a reference store fed the same samples.
"""

from __future__ import annotations

import queue
import threading
import time

from repro.api.client import CaladriusClient
from repro.api.ingest import encode_frames
from repro.durability import open_data_dir, store_content_hash
from repro.errors import ApiError

from perfbench import prepare, procs, stats
from perfbench.common import Context, Outcome
from perfbench.layers import TracedPhase, serving_delta
from perfbench.queries import Query
from perfbench.tracing import load_spans, spans_in

#: Three topologies, cycled: with an odd count the median fresh
#: prediction falls inside one topology's cluster of latencies, not on
#: the gap between two clusters.
TOPOLOGIES = ["word-count", "gen-diamond-1", "gen-deep_chain-1"]
#: Batches per second.  The questions after a batch keep the query
#: client busy for about a third of the period, so a fresh prediction
#: does not queue behind the previous batch's questions.
BATCH_RATE = 2.0
#: Fixed tail percentile: BATCH_RATE * 20 s gives 10 samples beyond p75.
TAIL_PCT = 75.0
CONFIG = "caladrius:\n  ingest:\n    async_api: true\n"


def questions(topology: str, rate_tpm: float) -> list[Query]:
    """The autoscaler's questions; the first is the fresh prediction."""
    return [
        Query("performance", topology, source_rate=float(round(rate_tpm))),
        Query("performance", topology),
        Query("traffic", topology),
    ]


def build_batches(seed: int, simulations, count: int, traced: bool):
    """``count`` batches, round-robin over the topologies.

    ``simulations`` are the ones that wrote the prepared data dir.
    Returns ``[(topology, samples, frames)]``, each topology's current
    rate and the encode times (only measured when ``traced``).
    """
    streams = {
        name: prepare.MinuteStream(name, simulations[name], seed)
        for name in TOPOLOGIES
    }
    batches = []
    encodes = []
    for index in range(count):
        stream = streams[TOPOLOGIES[index % len(TOPOLOGIES)]]
        samples = stream.next_minute()
        started = time.monotonic()
        raw = encode_frames(samples)
        if traced:
            encodes.append(time.monotonic() - started)
        batches.append((stream.name, samples, raw))
    rates = {name: stream.rate_tpm for name, stream in streams.items()}
    return batches, rates, encodes


def reference_hash(data_dir, batches) -> str:
    """Content hash of the prepared dir plus every sent sample.

    Samples go in one ``write`` at a time, not through the frame codec
    the service uses, so the two paths check each other.
    """
    store, _ = open_data_dir(data_dir, fsync="never")
    try:
        for _, samples, _ in batches:
            for name, ts, value, tags in samples:
                store.write(name, ts, value, tags)
        return store_content_hash(store)
    finally:
        store.close()


def run(ctx: Context, seconds: float, traced: bool, boots: int) -> Outcome:
    prepared = ctx.path("prepared")
    simulations = prepare.prepare_data_dir(prepared, TOPOLOGIES, ctx.seed)
    count = int(seconds * BATCH_RATE)
    batches, rates, encodes = build_batches(
        ctx.seed, simulations, count, traced
    )
    config = ctx.path("config.yaml")
    config.write_text(CONFIG, encoding="utf8")

    service, setup = procs.boot(ctx, prepared, boots, traced, config)
    writer = CaladriusClient("127.0.0.1", service.port, retries=0)
    asker = CaladriusClient("127.0.0.1", service.port, retries=0)
    problems: list[str] = []
    due: list[float] = []
    sent: list[float] = []
    acked: list[float] = []
    fresh: list[float] = []
    query_rtts: list[float] = []
    failures = [0, 0]  # writer, asker
    acked_samples = [0]
    try:
        for name in TOPOLOGIES:  # untimed warm-up: one round of questions
            for query in questions(name, rates[name]):
                query.call(asker)
        before = asker.serving_stats()
        acks: queue.Queue = queue.Queue()
        cpu_before = service.cpu_seconds()
        start = time.monotonic() + 0.05

        def write() -> None:
            for index, (name, samples, raw) in enumerate(batches):
                when = start + index / BATCH_RATE
                pause = when - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                issued = time.monotonic()
                try:
                    ack = writer.write_batch_raw(raw)
                except ApiError as exc:
                    failures[0] += 1
                    problems.append(f"batch {index} refused: {exc}")
                    continue
                done = time.monotonic()
                if ack.acked != len(samples) or ack.rejected:
                    failures[0] += 1
                    problems.append(
                        f"batch {index}: {ack.acked}/{len(samples)} acked"
                    )
                    continue
                acked_samples[0] += len(samples)
                due.append(when)
                sent.append(issued)
                acked.append(done)
                acks.put((name, when))
            acks.put(None)

        def ask() -> None:
            while (item := acks.get()) is not None:
                name, when = item
                for position, query in enumerate(questions(name, rates[name])):
                    issued = time.monotonic()
                    try:
                        query.call(asker)
                    except ApiError as exc:
                        failures[1] += 1
                        problems.append(f"{query.kind} {name}: {exc}")
                        continue
                    done = time.monotonic()
                    query_rtts.append(done - issued)
                    if position == 0:
                        fresh.append(done - when)

        threads = [threading.Thread(target=write), threading.Thread(target=ask)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        finished = time.monotonic()
        sut_cpu_s = service.cpu_seconds() - cpu_before
        after = asker.serving_stats()
        service_hash = asker.state_hash()["content_hash"]
        rss = service.peak_rss_mb()
    except BaseException:
        service.kill()
        raise
    finally:
        writer.close()
        asker.close()
    service.stop()

    expected = reference_hash(
        prepare.copy_data_dir(prepared, ctx.path("reference")),
        batches,
    )
    if service_hash != expected:
        problems.append("service state hash differs from the reference store")
    check_failed = 1 if service_hash != expected else 0
    attempted = len(batches) + len(query_rtts) + failures[1] + 1  # + hash
    ack_ms = [1e3 * x for x in stats.due_latencies(due, acked)]
    duration = finished - start
    query_ms = [1e3 * x for x in query_rtts]
    report = {
        "ingest_ack_p50_ms": (stats.median(ack_ms), "ms"),
        **stats.supported_tail("ingest_ack", ack_ms),
        "ingest_samples_per_s": (acked_samples[0] / duration, "1/s"),
        "query_p50_ms": (stats.median(query_ms), "ms"),
        **stats.supported_tail("query", query_ms),
        "query_rps": (len(query_rtts) / duration, "1/s"),
    }
    outcome = Outcome(
        op_ms=[1e3 * x for x in fresh],
        tail_pct=TAIL_PCT,
        ops_per_s=len(fresh) / duration,
        setup_s=setup,
        sut_rss_mb=rss,
        attempted=attempted,
        failed=sum(failures) + check_failed,
        problems=problems,
        report=report,
    )
    if traced:
        spans = load_spans(str(service.trace_out))
        delta = serving_delta(before, after)
        outcome.traced = TracedPhase(
            sut_spans=spans_in(spans, start, finished),
            sut_cpu_s=sut_cpu_s,
            recover_spans=spans,
            rtts=query_rtts,
            encodes=encodes,
            queries=len(query_rtts),
            batches=len(acked),
            serving_delta=delta,
            lateness=stats.lateness(due, sent),
        )
    return outcome
