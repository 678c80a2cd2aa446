"""Time benchmark passes of two source trees in one process, op by op.

Each tree's capslice package is copied under its own name, capslice_parent
and capslice_change, and both are imported here, so the two sides share one
interpreter and meet the machine in the same phase.  The seed's inputs come
from bench/workloads.build_inputs, imported as it is, with the parent tree
as the capslice it screens them with.  A pass runs every op of a workload
once through the tree's cli.main, stdout and stderr captured, as
bench/worker.py does.

One untimed pass per tree comes first.  If any op's exit code or stdout
differs between the trees, or a timed run gives other output than that
first pass, the script names the op and exits 1.  Then each round runs
every op on both trees, op by op, the parent first in even rounds and the
change first in odd ones; a side's pass time in a round is the sum of its
op times.  One JSON line per workload gives both medians of the pass time
in ms, the change in %, how many rounds the change was faster in, and each
side's minimum and interquartile range.  It also gives each side's per-op
minimum, the sum over ops of each op's fastest round (parent_opmin_ms,
change_opmin_ms), the change in it in % (opmin_change_pct) and how many
ops were fastest on the change (opmin_change_wins).  A pass swings with
whatever else the machine runs, while an op's fastest round rarely does,
so same-tree controls read far closer to zero on the per-op minima than on
the medians: read the per-op minima first, and the win counts with them.
Run from the repository root, with the stdlib only:

    python tests/ab_passes.py PARENT_SRC CHANGE_SRC [--workload W] [--seed 1] [--rounds 30]

PARENT_SRC and CHANGE_SRC are directories holding a capslice package, such
as the src directories of two checkouts; giving one tree twice is a control
run.  load_tree is importable for finer timings of the same two trees.  The
name does not match pytest's test file pattern, so the suite never collects
this file.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def load_tree(src: str | Path, name: str, into: Path):
    """Copy src's capslice package to into/name and import it as name; into
    must be on sys.path."""
    shutil.copytree(
        Path(src) / "capslice", into / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    return importlib.import_module(name)


def run_op(main, op: dict) -> tuple[float, tuple[int | None, str]]:
    """Wall ms of one op, and its exit code and stdout."""
    out, err = StringIO(), StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(op["argv"])
    return (time.perf_counter() - start) * 1000.0, (code, out.getvalue())


def first_difference(ops: list[dict], a: list, b: list) -> str | None:
    return next((op["id"] for op, x, y in zip(ops, a, b) if x != y), None)


def compare(workload: str, seed: int, ops: list[dict], mains: dict, rounds: int) -> dict:
    reference = {side: [run_op(mains[side], op)[1] for op in ops] for side in SIDES}
    differs = first_difference(ops, reference["parent"], reference["change"])
    if differs:
        raise SystemExit(f"{workload} {differs}: exit code or stdout differs between the trees")
    # each round's pass time per side, the sum of its ops' times, and each
    # op's fastest round per side
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    fastest = {side: [math.inf] * len(ops) for side in SIDES}
    for r in range(rounds):
        total = dict.fromkeys(SIDES, 0.0)
        gc.collect()  # no round pays for the garbage of the one before
        for k, op in enumerate(ops):
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                ms, result = run_op(mains[side], op)
                if result != reference[side][k]:
                    raise SystemExit(f"{workload} {op['id']}: the {side} tree's output changed")
                total[side] += ms
                fastest[side][k] = min(fastest[side][k], ms)
        for side in SIDES:
            times[side].append(total[side])
    parent, change = (statistics.median(times[side]) for side in SIDES)
    row = {
        "workload": workload,
        "seed": seed,
        "ops": len(ops),
        "rounds": rounds,
        "parent_ms": round(parent, 3),
        "change_ms": round(change, 3),
        "change_pct": round((change - parent) / parent * 100.0, 2),
        "change_wins": sum(c < p for p, c in zip(times["parent"], times["change"])),
    }
    for side in SIDES:
        q1, _, q3 = statistics.quantiles(times[side], n=4, method="inclusive")
        row[f"{side}_min_ms"] = round(min(times[side]), 3)
        row[f"{side}_iqr_ms"] = round(q3 - q1, 3)
    parent, change = (sum(fastest[side]) for side in SIDES)
    row["parent_opmin_ms"] = round(parent, 3)
    row["change_opmin_ms"] = round(change, 3)
    row["opmin_change_pct"] = round((change - parent) / parent * 100.0, 2)
    row["opmin_change_wins"] = sum(c < p for p, c in zip(fastest["parent"], fastest["change"]))
    return row


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 2:  # each side's quartiles need two passes
        parser.error("--rounds must be at least 2")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sys.path[:0] = [str(work), str(Path(args.parent_src).resolve()), str(ROOT / "bench")]
        workloads = importlib.import_module("workloads")
        names = args.workload or list(workloads.WORKLOADS)
        unknown = sorted(set(names) - set(workloads.WORKLOADS))
        if unknown:
            parser.error(f"unknown workload {unknown[0]!r}")
        mains = {}
        for side, src in zip(SIDES, (args.parent_src, args.change_src)):
            package = load_tree(src, f"capslice_{side}", work).__name__
            mains[side] = importlib.import_module(f"{package}.cli").main
        for name in names:
            inputs = work / "inputs" / name
            ops = workloads.build_inputs(name, args.seed, str(inputs))["ops"]
            row = compare(name, args.seed, ops, mains, args.rounds)
            print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
