"""Time the library's calls at a named commit and in the working tree, side by side.

    python tests/micro.py --parent HEAD
    python tests/micro.py --parent 61dbad5 --n 16 181 1022 --x 0.35 1.25 --rounds 41

``src/tritoep`` of the named commit is taken with ``git archive`` into a
temporary directory twice, as the packages ``tritoep_parent`` and
``tritoep_control`` (the package imports itself relatively, so a copy loads
under any name); the working tree's ``src/tritoep`` loads as ``tritoep``.
All three run in this process.  Each cell of the grid (a call, an order n and
x = b/(2s) of the spec (1, 2x, 1, n)) is timed in rounds of ``PER_ROUND`` calls;
the three sides take turns inside a round, each round starting on the next
side.  A cell reports the median and the minimum over the rounds, per call,
in us, for the parent and the change, their ratio (change over parent), and
the same ratio for the control copy: the A/A ratio, the noise of a ratio
when nothing changed.  A call that a side refuses (``decay_bound`` outside
the gapped regime) is left out of the grid.

The lines before the last give the table; the last line is the json block
that a ``BENCH_*.json`` ``micro`` section holds.  The standard library and
numpy only; not collected by pytest, not part of the test suite.  Time with
the machine otherwise idle, and pin the process to one CPU (``taskset -c 1``)
where the host has several.
"""

import argparse
import gc
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CALLS = ("make_spec", "symmetrise", "determinant", "char_poly_eval", "weighted_condition",
         "decay_bound", "eigenvalues", "eigenvector", "build_kernel", "apply_inverse",
         "thomas_solve")
PER_ROUND = 200


def load_commit(rev: str, name: str, into: Path):
    """Import ``src/tritoep`` of commit ``rev`` as the package ``name``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/tritoep"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        for member in archive.getmembers():
            if member.isfile():
                target = into / name / Path(member.name).relative_to("src/tritoep")
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(archive.extractfile(member).read())
    return importlib.import_module(name)


def cell_call(lib, call: str, n: int, x: float):
    """A no-argument function running ``call`` once on side ``lib``, or None if refused."""
    spec = lib.make_spec(1.0, 2.0 * x, 1.0, n)
    rhs = np.random.default_rng(n).standard_normal(n)
    args = {"make_spec": (1.0, 2.0 * x, 1.0, n), "char_poly_eval": (spec, 0.5),
            "decay_bound": (spec, 1, n), "eigenvector": (spec, (n + 1) // 2),
            "thomas_solve": (spec, rhs)}.get(call, (spec,))
    fn = getattr(lib, call)
    try:
        if call == "apply_inverse":
            args = (lib.build_kernel(spec), rhs)
        fn(*args)
    except lib.TriToeplitzError:
        return None
    return lambda: fn(*args)


def time_cell(funcs: dict, rounds: int, calls: int) -> dict:
    """Per-call us of each side over ``rounds`` interleaved rounds."""
    times = {side: [] for side in funcs}
    order = list(funcs)
    loop = range(calls)
    for r in range(rounds):
        first = r % len(order)
        for side in order[first:] + order[:first]:
            fn = funcs[side]
            gc.disable()
            start = time.perf_counter_ns()
            for _ in loop:
                fn()
            elapsed = time.perf_counter_ns() - start
            gc.enable()
            times[side].append(elapsed / calls / 1e3)
    return times


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default="HEAD", help="the commit to compare with (default HEAD)")
    p.add_argument("--n", type=int, nargs="+", default=[16, 181, 1022])
    p.add_argument("--x", type=float, nargs="+", default=[0.35, 1.25])
    p.add_argument("--calls", nargs="+", default=list(CALLS), choices=CALLS, metavar="CALL")
    p.add_argument("--rounds", type=int, default=21)
    args = p.parse_args(argv)

    sys.dont_write_bytecode = True
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                            capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        sys.path[:0] = [str(ROOT / "src"), tmp]
        # the change loads first: a copy loaded later can run a few per cent
        # faster, and the A/A ratio shows that bias between the two later ones
        change = importlib.import_module("tritoep")
        libs = {"parent": load_commit(commit, "tritoep_parent", Path(tmp)),
                "control": load_commit(commit, "tritoep_control", Path(tmp)),
                "change": change}
        cells, lines = [], []
        for call in args.calls:
            lines.append(call)
            print(call, flush=True)
            for n in args.n:
                for x in args.x:
                    funcs = {side: cell_call(lib, call, n, x) for side, lib in libs.items()}
                    if None in funcs.values():
                        continue
                    times = time_cell(funcs, args.rounds, PER_ROUND)
                    med = {side: statistics.median(t) for side, t in times.items()}
                    low = {side: min(t) for side, t in times.items()}
                    cell = {"call": call, "n": n, "x": x,
                            "parent_us": round(med["parent"], 3),
                            "change_us": round(med["change"], 3),
                            "ratio": round(med["change"] / med["parent"], 4),
                            "min_ratio": round(low["change"] / low["parent"], 4),
                            "aa_ratio": round(med["control"] / med["parent"], 4),
                            "aa_min_ratio": round(low["control"] / low["parent"], 4)}
                    cells.append(cell)
                    lines.append(
                        f"  n={n:>6} x={x:<6g} parent {med['parent']:8.2f} "
                        f"change {med['change']:8.2f} ratio {cell['ratio']:.3f} "
                        f"(min {cell['min_ratio']:.3f})   A/A {cell['aa_ratio']:.3f} "
                        f"(min {cell['aa_min_ratio']:.3f})")
                    print(lines[-1], flush=True)
    block = {
        "what": "tests/micro.py: the parent's src/tritoep (git archive, loaded twice, the second "
                "copy the A/A control) and the working tree's, side by side in one process",
        "command": "python tests/micro.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "parent": commit,
        "how": f"spec (1, 2x, 1, n); median and min over {args.rounds} rounds of "
               f"{PER_ROUND} calls per side, the sides interleaved, each round starting "
               "on the next; us per call; ratio = change / parent, A/A = control / parent",
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpus": sorted(os.sched_getaffinity(0))},
        "lines": lines,
        "cells": cells,
    }
    print(json.dumps(block))


if __name__ == "__main__":
    main()
