"""Run one benchmark workload and print its result as the last line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; provenance and progress go to standard error.  Exits with a
non-zero code, printing no result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

# Running as a script puts this directory, not the checkout root, on
# the import path; the package is imported by its full name.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    BenchmarkError,
    fill_layers,
    provenance,
    require_program,
    result_line,
)

WORKLOADS = ("sweep_cold", "serve_zipf", "live_dedup_ingest")


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False):
    """Run one workload; returns its :class:`~perfbench.harness.Outcome`
    with the trace mode's full metric set."""
    require_program()
    if name == "sweep_cold":
        from perfbench import sweep_cold as module
    elif name == "serve_zipf":
        from perfbench import serve_zipf as module
    elif name == "live_dedup_ingest":
        from perfbench import live_dedup_ingest as module
    else:
        raise BenchmarkError(f"unknown workload {name!r}")
    outcome = module.run(seed, seconds, trace, module.TINY if tiny else module.FULL)
    if trace:
        outcome.metrics, not_measured = fill_layers(outcome.metrics)
        outcome.info["not_measured"] = not_measured
    outcome.info["provenance"] = provenance(seed, seconds, trace)
    outcome.info["error_rate"] = (
        outcome.failed / outcome.attempted if outcome.attempted else 0.0
    )
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs (the benchmark's own tests)"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated run unwinds like an exception, so the server child
    # process and scratch directories are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # A process started in the background may inherit an ignored SIGINT,
    # and would pass that on to the server child, which then could not
    # be stopped with SIGINT; a handled signal is reset when a child
    # starts its program.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        outcome = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny
        )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for error in outcome.errors[:20]:
        print(f"perfbench: failed check: {error}", file=sys.stderr)
    print(json.dumps(outcome.info, default=str), file=sys.stderr)
    catalogue = PER_LAYER if args.trace else END_TO_END
    for name, unit in catalogue.items():
        print(f"{args.workload} {name} = {outcome.metrics[name]:.6g} {unit}")
    print(f"{args.workload} error_rate = {outcome.info['error_rate']:.6g} fraction")
    print(result_line(outcome, catalogue))
    return 0


if __name__ == "__main__":
    sys.exit(main())
