"""Run the benchmark on two checkouts in alternating pairs and compare them.

Both checkouts are copied into sibling directories of one temporary
directory, parent/ and change/, whose paths have equal length: the
benchmark's peak_rss_mb grows with the path a run starts from.  A copy
leaves out .git, bytecode and any earlier benchmark work.  Each run is
BENCHMARK.json's command, read from PARENT, with --workload, --seed,
--seconds set to its run_seconds and --trace 0, started in the copy's root,
one run at a time.  Pair i runs the parent first when i is even and the
change first when it is odd.

For each workload, one JSON line gives pairs, all_correct, failed_ops, the
order of each pair and, per end-to-end metric of BENCHMARK.json, each
side's runs with their median, quartiles (statistics.quantiles, inclusive),
min and max, plus change_wins (pairs in which the change was strictly
better), worse_by_share (the change's median against the parent's, in the
metric's bad direction), the bound, inside_bound and parent_iqr.  Each
run's ops_per_s goes to stderr as it ends.  A run that exits non-zero
stops the script with exit code 1.  Run from anywhere, with the stdlib only:

    python tests/bench_pairs.py PARENT CHANGE [--workload W] [--seed S] [--pairs N]

PARENT and CHANGE are checkout roots, such as a git archive of the parent
commit and the working tree; giving one checkout twice is a control run.
--workload may be given more than once and defaults to every workload of
BENCHMARK.json.  The name does not match pytest's test file pattern, so
the suite never collects this file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
SKIP = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".bench_work", ".pytest_cache", ".hypothesis")


def run_once(root: Path, command: list[str]) -> dict:
    """The last stdout line of one benchmark run in root, parsed."""
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{root.name}: {' '.join(command)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": round(statistics.median(values), 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
        "min": round(min(values), 4),
        "max": round(max(values), 4),
        "runs": [round(v, 4) for v in values],
    }


def compare_metric(spec: dict, runs: dict[str, list[float]]) -> dict:
    higher = spec["better"] == "higher"
    parent, change = (statistics.median(runs[side]) for side in SIDES)
    worse = parent - change if higher else change - parent
    share = worse / parent if parent else float(worse)
    q1, _, q3 = statistics.quantiles(runs["parent"], n=4, method="inclusive")
    return {
        "better": spec["better"],
        "parent": summary(runs["parent"]),
        "change": summary(runs["change"]),
        "change_wins": sum(
            (c > p) if higher else (c < p) for p, c in zip(runs["parent"], runs["change"])
        ),
        "worse_by_share": round(share, 4),
        "bound": spec["bound"],
        "inside_bound": share <= spec["bound"],
        "parent_iqr": round(q3 - q1, 4),
    }


def pairs_of(workload: str, seed: int, pairs: int, roots: dict[str, Path], bench: dict) -> dict:
    command = [
        *bench["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    runs = {side: {} for side in SIDES}
    correct, failed, order = True, 0, []
    for i in range(pairs):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        order.append(f"{sides[0]}_first")
        for side in sides:
            result = run_once(roots[side], command)
            correct &= result["correct"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                runs[side].setdefault(name, []).append(metric["value"])
            rate = result["metrics"]["ops_per_s"]["value"]
            print(f"{workload} seed {seed} pair {i} {side}: {rate:.2f} ops/s", file=sys.stderr, flush=True)
    return {
        "workload": workload,
        "seed": seed,
        "pairs": pairs,
        "all_correct": bool(correct),
        "failed_ops": failed,
        "order": order,
        "metrics": {
            spec["name"]: compare_metric(spec, {side: runs[side][spec["name"]] for side in SIDES})
            for spec in bench["end_to_end"]
        },
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:  # each side's quartiles need two runs
        parser.error("--pairs must be at least 2")
    sources = {side: Path(getattr(args, side)).resolve() for side in SIDES}
    for side, src in sources.items():
        if not (src / "BENCHMARK.json").is_file():
            parser.error(f"{side} checkout {src} has no BENCHMARK.json")
    bench = json.loads((sources["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in bench["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        # "parent" and "change" are both six characters long
        roots = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            shutil.copytree(sources[side], roots[side], ignore=SKIP)
        for name in names:
            print(json.dumps(pairs_of(name, args.seed, args.pairs, roots, bench)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
