"""End-to-end refresh benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload uniform_cold --seed 1 --seconds 20 --trace 0

The workload's whole input is generated from ``--seed`` first.  The
system is then set up and driven as a single-threaded closed loop
through the public API — each cycle commits a batch of writes, then
makes one public refresh call — for ``--seconds`` seconds and at least
the workload's deterministic prefix of cycles (100, or 300 on
hotspot_online).  Afterwards every base table and snapshot is checked
against the benchmark's oracle.  ``setup_s`` is the median of seven
set-ups, three before the loop and four after it.

End-to-end times are scaled to a reference host speed, sampled around
every timed phase (see ``perfbench/hostspeed.py``): the host's cores
are shared and change speed by half again in phases of seconds.  The
raw wall-clock values follow as ``raw name value unit`` lines, with
``raw host_scale``, the run's median wall-to-reference factor.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same cycles twice on fresh set-ups, untraced and then with span
wrappers installed, and prints the per-layer metrics and the tracing
overhead; the spans are written to ``.perfbench_out/``.

Every metric is printed as ``name value unit``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every table and snapshot matched the
oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: "list[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end, layer-attributed snapshot refresh benchmark."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the program's sources on the path, or exit if there are none."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program sources under {src}; run from a "
            f"checkout of the repository\n"
        )
        sys.exit(2)
    sys.path[:0] = [str(src), str(ROOT)]


def main(argv: "list[str]") -> int:
    args = _parse(argv)
    _import_program()

    from perfbench import metrics
    from perfbench.bench import run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}\n"
        )
        return 2
    workload = WORKLOADS[args.workload]
    trace_path = ROOT / ".perfbench_out" / (
        f"trace-{workload.name}-seed{args.seed}.jsonl.gz"
    )
    outcome = run_workload(
        workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        trace_path=trace_path,
    )
    for message in outcome.messages:
        sys.stderr.write(f"perfbench: {message}\n")
    if args.trace:
        units, reported = metrics.PER_LAYER, list(metrics.PER_LAYER)
    else:
        units, reported = metrics.END_TO_END, metrics.REPORTED_END_TO_END
    for name, value in outcome.values.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in outcome.raw.items():
        print(f"raw {name} {value:.6g} {units.get(name, 'ratio')}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.values[name], "unit": units[name]}
                    for name in reported
                },
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
