"""Launch the program under test, optionally with layer spans installed.

    python perfbench/sut.py [--trace-out SPANS.json] serve <serve args>
    python perfbench/sut.py [--trace-out SPANS.json] plan-job <job args>

``serve`` hands its arguments to ``repro.cli.main`` unchanged, so the
service boots exactly as ``caladrius serve`` does.  With ``--trace-out``
the span wrappers (:data:`perfbench.tracing.SUT_TARGETS`) are installed
first and the spans are written when the process finishes.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    # Import every module a span targets before wrapping, so re-exported
    # names are replaced everywhere (cli imports some of them lazily).
    import repro.cli
    import repro.durability  # noqa: F401
    import repro.sweep  # noqa: F401
    from perfbench import tracing

    recorder = None
    if trace_out is not None:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    try:
        if argv[:1] == ["serve"]:
            return repro.cli.main(argv)
        if argv[:1] == ["plan-job"]:
            from perfbench import plan_search

            return plan_search.job_main(argv[1:], recorder)
        print(f"usage: sut.py [--trace-out F] serve|plan-job ...",
              file=sys.stderr)
        return 2
    finally:
        if recorder is not None:
            recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
