"""``plan-search``: batch capacity planning in its own process, no HTTP.

The job process (``sut.py plan-job``) recovers a prepared data dir of a
deep-chain topology with ``open_data_dir``, then runs jobs back to back
until the time is up.  A job ranks three seeded sets of 1024 candidate
plans at three source rates with ``PlanSweepEngine.sweep`` (one
calibration, reused) and simulates the top 8 of the last ranking with
``validate_plans(workers=0)``.  The
sweep kernel and the ``repro.heron`` simulator do nearly all the work;
transport, serving and durability none.

The op is one job.  After the timed window the job process checks, for
every job, that a sample of 16 plans ranks as ``evaluate_serial`` ranks
them, and that validating the first job's plans again gives identical
results.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

from perfbench import prepare, procs
from perfbench.common import Context, Outcome
from perfbench.layers import TracedPhase
from perfbench.tracing import load_spans, spans_in

#: One topology, so every job has the same shape and job times form one
#: cluster.  Cycling a diamond and two deep chains put the median job on
#: the edge between clusters: over five seeds its IQR/median was 0.26,
#: against 0.15 for jobs per second.
TOPOLOGIES = ["gen-deep_chain-1"]
#: Source rates of a job's plan sets, as multiples of the base rate.
RATE_FACTORS = (1.0, 1.5, 2.0)
PLANS_PER_SET = 1024
VALIDATE_TOP = 8
VALIDATE_MINUTES = 3
CHECK_SAMPLE = 16
#: A 20 s run fits ~25 jobs, which supports no percentile above the median.
TAIL_PCT = 50.0
READY = "plan-job ready "


def job_inputs(seed: int, index: int, bolts: list[str], base: float):
    """The rates and seeded plan sets of one job."""
    rng = random.Random(prepare.derive(seed, "job", index))
    rates = [factor * base for factor in RATE_FACTORS]
    plan_sets = [
        [
            {bolt: rng.randint(1, 8) for bolt in bolts}
            for _ in range(PLANS_PER_SET)
        ]
        for _ in rates
    ]
    return rates, plan_sets


def _sample_order(ranked, rng) -> tuple[list, list[str]]:
    """A sample of distinct plans and the order a sweep ranked them in.

    Random plan sets repeat plans, so the sample is drawn from distinct
    plans and the sweep's order is read at each plan's first occurrence.
    """
    from repro.serving.fingerprint import canonical_json

    order: list[str] = []
    plans = {}
    for entry in ranked:
        key = canonical_json(entry["plan"])
        if key not in plans:
            plans[key] = entry["plan"]
            order.append(key)
    wanted = set(rng.sample(sorted(plans), CHECK_SAMPLE))
    return (
        [plans[key] for key in sorted(wanted)],
        [key for key in order if key in wanted],
    )


def _serial_order(engine, name, rate, sample) -> list[str]:
    """The sample ranked by ``evaluate_serial``, with the sweep's tie-break."""
    from repro.serving.fingerprint import canonical_json

    serial = engine.evaluate_serial(engine.artifact(name), rate, sample)
    return [
        canonical_json(plan)
        for plan, _ in sorted(
            zip(sample, serial),
            key=lambda item: (-item[1].output_rate, canonical_json(item[0])),
        )
    ]


def job_main(argv: list[str], recorder) -> int:
    """The job process: recover, report ready, run jobs, write results."""
    parser = argparse.ArgumentParser(prog="plan-job")
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.durability import open_data_dir
    from repro.sweep import PlanSweepEngine, ValidationSpec, validate_plans

    store, tracker = open_data_dir(args.data_dir, fsync="never")
    print(f"{READY}{time.monotonic()!r}", flush=True)
    if args.setup_only:
        store.close()
        return 0
    deployments = {name: prepare.deployment(name) for name in TOPOLOGIES}

    def one_job(index: int):
        name = TOPOLOGIES[index % len(TOPOLOGIES)]
        dep = deployments[name]
        rates, plan_sets = job_inputs(
            args.seed, index, dep.bolts(), dep.base_rate_tpm
        )
        started = time.monotonic()
        engine = PlanSweepEngine(tracker, store)
        sweeps = [
            engine.sweep(name, rate, plans)
            for rate, plans in zip(rates, plan_sets)
        ]
        top = [entry["plan"] for entry in sweeps[-1]["ranked"][:VALIDATE_TOP]]
        spouts = dep.topology.spouts()
        spec = ValidationSpec(
            topology=tracker.get(name).topology,
            logic=dep.logic,
            source_rates_tpm={s.name: rates[-1] / len(spouts) for s in spouts},
            minutes=VALIDATE_MINUTES,
            base_seed=prepare.derive(args.seed, "validate", index),
        )
        validated = validate_plans(spec, top, workers=0)
        finished = time.monotonic()
        return started, finished, engine, sweeps[-1], (spec, top, validated)

    if recorder is not None:
        one_job = recorder.wrap(one_job, "job", "bench")
    jobs = []
    checks = []
    first_validation = None
    cpu_start = procs.cpu_seconds("self")
    window_start = time.monotonic()
    deadline = window_start + args.seconds
    while time.monotonic() < deadline:
        index = len(jobs)
        started, finished, engine, sweep, validation = one_job(index)
        jobs.append((started, finished))
        # Keep only what the checks need (the engine's artifact and the
        # sweep's order over a small sample), not 1024-entry payloads.
        rng = random.Random(prepare.derive(args.seed, "check", index))
        sample, order = _sample_order(sweep["ranked"], rng)
        checks.append((engine, sweep["topology"], sweep["source_rate"],
                       sample, order))
        if first_validation is None:
            first_validation = validation
    window_end = time.monotonic()
    cpu_end = procs.cpu_seconds("self")

    problems = []
    for index, (engine, name, rate, sample, order) in enumerate(checks):
        if _serial_order(engine, name, rate, sample) != order:
            problems.append(
                f"job {index}: sweep ranking of {name} differs from "
                "evaluate_serial"
            )
    if first_validation is not None:
        spec, top, validated = first_validation
        if validate_plans(spec, top, workers=0) != validated:
            problems.append("validating job 0 again gave different results")
    store.close()
    result = {
        "jobs": jobs,
        "window": [window_start, window_end],
        "cpu_s": cpu_end - cpu_start,
        "problems": problems,
        "rss_mb": procs.peak_rss_mb("self"),
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf8")
    return 0


def _boot(ctx: Context, prepared: Path, extra: list[str], trace_out=None):
    """Start one job process; returns (process, setup seconds, result path)."""
    result = ctx.path("result.json")
    args = [
        "plan-job",
        "--data-dir", str(prepare.copy_data_dir(prepared, ctx.path("data"))),
        "--seed", str(ctx.seed),
        "--result", str(result),
        *extra,
    ]
    process, started = procs.launch(args, ctx.workdir / "job.log", trace_out)
    try:
        line = process.stdout.readline()
        if not line.startswith(READY):
            raise procs.SutError(
                f"plan job did not report ready; see {ctx.workdir / 'job.log'}"
            )
        ready = float(line[len(READY):])
    except BaseException:
        process.kill()
        process.wait()
        process.stdout.close()
        raise
    return process, ready - started, result


def _finish(process, timeout: float) -> None:
    try:
        code = process.wait(timeout=timeout)
    except Exception:
        process.kill()
        process.wait()
        raise
    finally:
        process.stdout.close()
    if code != 0:
        raise procs.SutError(f"plan job exited with status {code}")


def run(ctx: Context, seconds: float, traced: bool, boots: int) -> Outcome:
    prepared = ctx.path("prepared")
    prepare.prepare_data_dir(prepared, TOPOLOGIES, ctx.seed)
    setup = []
    for _ in range(boots - 1):
        process, setup_s, _ = _boot(
            ctx, prepared, ["--seconds", "0", "--setup-only"]
        )
        _finish(process, procs.STOP_TIMEOUT_S)
        setup.append(setup_s)
    trace_out = ctx.path("spans.json") if traced else None
    process, setup_s, result_path = _boot(
        ctx, prepared, ["--seconds", repr(seconds)], trace_out
    )
    setup.append(setup_s)
    _finish(process, seconds + procs.STOP_TIMEOUT_S + 60)
    result = json.loads(result_path.read_text(encoding="utf8"))
    durations = [1e3 * (end - start) for start, end in result["jobs"]]
    window_start, window_end = result["window"]
    outcome = Outcome(
        op_ms=durations,
        tail_pct=TAIL_PCT,
        ops_per_s=len(durations) / (window_end - window_start),
        setup_s=setup,
        sut_rss_mb=result["rss_mb"],
        attempted=len(durations) + 1,  # + the validation re-run
        failed=len(result["problems"]),
        problems=result["problems"],
        report={"plans_ranked_per_s": (
            len(RATE_FACTORS) * PLANS_PER_SET * len(durations)
            / (window_end - window_start),
            "1/s",
        )},
    )
    if traced:
        spans = load_spans(str(trace_out))
        outcome.traced = TracedPhase(
            sut_spans=spans_in(spans, window_start, window_end),
            sut_cpu_s=result["cpu_s"],
            recover_spans=spans,
        )
    return outcome
