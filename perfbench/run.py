"""The repository benchmark: one command, every metric, output checks.

    python3 perfbench/run.py --workload query-hot|ingest-query|plan-search \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload twice, untraced then with span
wrappers installed in the service process, and reports the per-layer
metrics (each phase gets half of ``--seconds``).  The last line of
stdout is one JSON object; the lines before it name every figure with
its unit.  Exits non-zero, printing no result, if the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def metric_units(kind: str) -> dict[str, str]:
    """``name -> unit`` of BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def select(values: dict[str, float], units: dict[str, str]) -> dict:
    """The result's ``metrics``: every declared metric, no other."""
    if set(values) != set(units):
        raise ValueError(
            "measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("query-hot", "ingest-query", "plan-search"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # A SIGTERM unwinds like an error, so every service process started
    # so far is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from perfbench import common, layers, stats
    from perfbench import ingest_query, plan_search, query_hot

    workload = {
        "query-hot": query_hot,
        "ingest-query": ingest_query,
        "plan-search": plan_search,
    }[args.workload]
    scratch_root = ROOT / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    ctx = common.Context(seed=args.seed, workdir=workdir)
    try:
        if args.trace:
            half = max(1.0, args.seconds / 2)
            phases = [
                workload.run(ctx, half, traced=False, boots=1),
                workload.run(ctx, half, traced=True, boots=1),
            ]
        else:
            phases = [
                workload.run(
                    ctx, args.seconds, traced=False, boots=common.SETUP_BOOTS
                )
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for phase in phases for p in phase.problems]
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    lines = [f"workload {args.workload} seed {args.seed} "
             f"seconds {args.seconds:g} trace {args.trace}"]
    first = phases[0]
    tail_value, tail_n, supported = stats.tail(first.op_ms, first.tail_pct)
    e2e = {
        "setup_s": stats.median(first.setup_s),
        "sut_rss_mb": first.sut_rss_mb,
        "op_p50_ms": stats.median(first.op_ms),
        "op_tail_ms": tail_value,
        "ops_per_s": first.ops_per_s,
    }
    lines.append(
        f"op tail is p{first.tail_pct:g} over {tail_n} ops"
        + ("" if supported else " (fewer than 10 samples beyond it)")
    )
    for phase_name, phase in zip(("untraced", "traced"), phases):
        for name, (value, unit) in phase.report.items():
            lines.append(f"{phase_name} {name} {value:.6g} {unit}")
    if args.trace:
        traced = phases[1]
        overhead = stats.median(traced.op_ms) / e2e["op_p50_ms"]
        metrics = select(
            layers.per_layer(traced.traced, overhead), metric_units("per_layer")
        )
    else:
        metrics = select(e2e, metric_units("end_to_end"))
    lines += [
        f"{name} {entry['value']:.6g} {entry['unit']}"
        for name, entry in metrics.items()
    ]
    lines += [f"error_ratio {failed / max(1, attempted):.6g} failed/attempted"]
    lines += [f"check failed: {problem}" for problem in problems]
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
