"""Time whole benchmark passes of two source trees in one process, alternating.

Each tree's capslice package is copied under its own name, capslice_parent
and capslice_change, and both are imported here, so the two sides share one
interpreter and meet the machine in the same phase.  The seed's inputs come
from bench/workloads.build_inputs, imported as it is, with the parent tree
as the capslice it screens them with.  A pass runs every op of a workload
once through the tree's cli.main, stdout and stderr captured, as
bench/worker.py does.

One untimed pass per tree comes first.  If any op's exit code or stdout
differs between the trees, or a timed pass gives other output than that
first pass, the script names the op and exits 1.  Then the rounds alternate
whole passes, the parent first in even rounds and the change first in odd
ones, and one JSON line per workload gives both medians in ms, the change
in %, how many rounds the change was faster in, and each side's minimum and
interquartile range.  The win count is the verdict: on a shared machine the
medians of two trees can move by several percent between sittings while it
holds.  Run from the repository root, with the stdlib only:

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


def run_pass(main, ops: list[dict]) -> tuple[float, list[tuple[int | None, str]]]:
    """Wall ms of one pass over ops, and each op's exit code and stdout."""
    results = []
    start = time.perf_counter()
    for op in ops:
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(op["argv"])
        results.append((code, out.getvalue()))
    return (time.perf_counter() - start) * 1000.0, results


def first_difference(ops: list[dict], a: list, b: list) -> str | None:
    return next((op["id"] for op, x, y in zip(ops, a, b) if x != y), None)


def compare(workload: str, seed: int, ops: list[dict], mains: dict, rounds: int) -> dict:
    reference = {side: run_pass(mains[side], ops)[1] for side in SIDES}
    differs = first_difference(ops, reference["parent"], reference["change"])
    if differs:
        raise SystemExit(f"{workload} {differs}: exit code or stdout differs between the trees")
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    for r in range(rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            gc.collect()  # no pass pays for the garbage of the one before
            ms, results = run_pass(mains[side], ops)
            differs = first_difference(ops, reference[side], results)
            if differs:
                raise SystemExit(f"{workload} {differs}: the {side} tree's output changed")
            times[side].append(ms)
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
