#!/usr/bin/env python3
"""Run one workload of the tritoep benchmark and print its metrics.

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 30 --trace 0

One closed-loop client sends each request after the previous one has
answered, for ``--seconds`` seconds, and checks every answer outside the
timed span.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs every request both traced and untraced and prints the per-layer
metrics.  The last line of stdout is the result as one JSON object; the
lines before it, starting with '#', give sample counts, failures by kind
and a machine note.  See perfbench/README.md for the workloads and for
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve_stream", "query_mix", "cli_calls")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tritoep" / "__init__.py").is_file():
        print(f"error: no src/tritoep under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # client, program, child processes and calibration share one CPU, so a
    # calibration reading describes the CPU the request ran on.  Pinning
    # comes before numpy is imported, so this process and its children
    # start the same number of BLAS threads and compute identical results.
    os.sched_setaffinity(0, {current_cpu()})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import serve

    workload = serve.make(args.workload, args.seed)
    stats = serve.run_loop(workload, args.seconds, args.trace == 1)
    if args.trace:
        metrics = serve.layer_metrics(stats)
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.tsv"
        stats.tracer.dump(str(out))
    else:
        metrics = serve.end_to_end_metrics(workload, stats)
    for line in serve.report_lines(args, stats):
        print(line)
    result = {
        # a typed error is a refusal, not a wrong answer: it counts as failed only
        "correct": stats.failures["check"] + stats.failures["nonfinite"] == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
