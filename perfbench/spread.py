"""Repeat runs over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload plan-search --seeds 1-10 \\
        [--sets 2] [--seconds 20] [--trace 0]

For every metric: the median of the runs and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of that median.  With ``--sets 2`` the seeds run twice, one set
after the other, and each metric's second median is compared with its
first.  This is how ``BASELINE.md`` was measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    """``"3"``, ``"1-10"`` or ``"1,4,9"``."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_set(args: argparse.Namespace, label: str):
    """One run per seed; returns ``{metric: [values]}`` and the units."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True, cwd=RUN.parent.parent,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"seed {seed}: exit {done.returncode}\n{done.stderr}"
            )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{label} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()),
              flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
    return values, units


def spread(series: list[float]) -> float:
    """``(Q3 - Q1) / median``; 0 for fewer than two values."""
    middle = statistics.median(series)
    if len(series) < 2 or not middle:
        return 0.0
    q1, _, q3 = statistics.quantiles(series, n=4)
    return (q3 - q1) / middle


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)
    results = []
    for index in range(args.sets):
        try:
            results.append(run_set(args, f"set {index + 1}"))
        except RuntimeError as exc:
            print(exc)
            return 1
    first, units = results[0]
    for name in first:
        line = []
        for index, (values, _) in enumerate(results):
            line.append(
                f"set {index + 1} median {statistics.median(values[name]):.4g}"
                f" IQR/median {spread(values[name]):.3f}"
            )
        if len(results) > 1:
            base = statistics.median(first[name])
            last = statistics.median(results[-1][0][name])
            shift = (last - base) / base if base else 0.0
            line.append(f"median shift {shift:+.3f}")
        print(f"{name} ({units[name]}): " + "; ".join(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
