"""Seeded, calibrated benchmark of the capslice CLI.

Run from the repository root:

    python3 bench/run.py --reference-kernel-ms R --workload optimize_broad \
        --seed 1 --seconds 10 --trace 0

The workload's inputs are generated from --seed, then run through
``capslice.cli.main`` in a separate process with a pinned hash seed.
Every time is calibrated: ``wall * R / kernel``, where ``kernel`` is the
reference kernel's time measured right next to the timed region.  Progress
lines (input properties, diagnostics) come first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import kernel_ms

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

SETUP_REPEATS = 3
# p90 needs ten samples above it: 35 inputs x 4 passes leaves 14
MIN_PASSES = 4
TRACE_PASSES = 4  # untraced and traced, alternating
# Seconds one timed pass takes at the reference kernel speed; with --seconds
# this fixes the number of whole passes, so a run never stops on a clock.
NOMINAL_PASS_S = {"optimize_broad": 1.6, "slices_shared": 1.5, "simulate_edits": 1.2}
# a whole run, workers included, ends within this many seconds
RUN_LIMIT_S = 170
STARTED = time.monotonic()

LAYERS = (
    "graph.parse",
    "slicing.enumerate",
    "slicing.score",
    "slicing.rank",
    "slicing.make_slice",
    "optimizer.optimize",
    "changesim.compare",
)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def spawn_worker(manifest: Path, result: Path, passes: int, spans: Path | None = None) -> dict:
    """Run one workload process to completion and return its result; with
    spans, every second pass is traced and the spans are written there."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH / "worker.py"), str(manifest), str(result), "--passes", str(passes)]
    if spans is not None:
        cmd += ["--trace", "--spans", str(spans)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - STARTED)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out") from None
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def calibrated_ms(sample: dict, ref: float) -> float:
    return sample["wall_ms"] * ref / ((sample["kernel_before_ms"] + sample["kernel_after_ms"]) / 2)


def spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"min": min(values), "median": med, "max": max(values), "iqr_share": (q[2] - q[0]) / med}


def invalid_ops(warmup: dict, golden: dict | None) -> set[str]:
    """Ops whose warm-up output is wrong: non-zero exit, a result that
    disagrees with the library's, or bytes that differ from the golden hash."""
    bad = {op for op, w in warmup.items() if w["code"] != 0 or not w["matches_library"]}
    if golden is not None:
        bad |= {op for op, w in warmup.items() if golden.get(op) != w["sha256"]}
    return bad


def by_pass(samples: list[dict]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for s in samples:
        out.setdefault(s["pass_index"], []).append(s)
    return out


def end_to_end(args, manifest: Path, work: Path, golden: dict | None, passes: int) -> tuple[dict, dict, int, int]:
    ref = args.reference_kernel_ms
    setups = []
    for i in range(SETUP_REPEATS):
        kernel_before = kernel_ms()
        # the last set-up worker goes on to make the timed passes
        last = i == SETUP_REPEATS - 1
        res = spawn_worker(manifest, work / f"result-{i}.json", passes if last else 0)
        # process start to the end of the warm-up pass, less the kernel runs
        segments = res["setup_segments"]
        segments[0]["kernel_before_ms"] = kernel_before
        setups.append(sum(calibrated_ms(s, ref) for s in segments) / 1000)
    samples = res["samples"]
    bad = invalid_ops(res["warmup"], golden)
    failed = sum(1 for s in samples if not s["ok"] or s["op"] in bad)
    latencies = [calibrated_ms(s, ref) for s in samples]
    pass_rates = [len(ps) / (sum(calibrated_ms(s, ref) for s in ps) / 1000) for ps in by_pass(samples).values()]
    raw_rates = [len(ps) / (sum(s["wall_ms"] for s in ps) / 1000) for ps in by_pass(samples).values()]
    kernels = [s["kernel_after_ms"] for s in samples]
    metrics = {
        "ops_per_s": (statistics.median(pass_rates), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024, "MB"),
        "success_rate": ((len(samples) - failed) / len(samples), "share"),
    }
    diagnostics = {
        "samples": len(samples),
        "samples_above_p90": len(samples) - math.ceil(0.9 * len(samples)),
        "passes": passes,
        "error_rate": failed / len(samples),
        "invalid_ops": sorted(bad),
        "raw_ops_per_s": statistics.median(raw_rates),
        "raw_latency_p50_ms": statistics.median(s["wall_ms"] for s in samples),
        "kernel_ms": spread(kernels),
        "setup_s_each": setups,
    }
    return metrics, diagnostics, len(samples), failed


def per_layer(args, manifest: Path, work: Path, golden: dict | None) -> tuple[dict, dict, int, int]:
    ref = args.reference_kernel_ms
    res = spawn_worker(manifest, work / "result-trace.json", TRACE_PASSES, work / "spans.jsonl")
    samples = res["samples"]
    bad = invalid_ops(res["warmup"], golden)
    failed = sum(1 for s in samples if not s["ok"] or s["op"] in bad)

    untraced, traced = [], []
    for ps in by_pass(samples).values():
        (traced if ps[0]["traced"] else untraced).append(ps)

    def pass_ms(ps):
        return sum(calibrated_ms(s, ref) for s in ps)

    def layer_ms(ps, name):
        return sum(s["self_s"].get(name, 0.0) * 1000 * calibrated_ms(s, ref) / s["wall_ms"] for s in ps)

    def counted(ps, name):
        return sum(s["counts"].get(name, 0) for s in ps)

    ps = traced[0]  # counts are the same in every traced pass
    emitted = counted(ps, "slicing.slices_emitted")
    cells = counted(ps, "changesim.cells")
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYERS + ("cli.op",):
        key = "cli.self" if name == "cli.op" else name
        metrics[f"{key}_ms"] = (statistics.median(layer_ms(p, name) for p in traced), "ms")
        metrics[f"{key}_share"] = (statistics.median(layer_ms(p, name) / pass_ms(p) for p in traced), "share")
    metrics.update({
        "slicing.slices_emitted": (emitted, "count"),
        "slicing.slices_scored": (counted(ps, "slicing.slices_scored"), "count"),
        "optimizer.candidates": (counted(ps, "optimizer.candidates"), "count"),
        "optimizer.initial_ratio": (counted(ps, "optimizer.candidates") / emitted if emitted else 0.0, "ratio"),
        "optimizer.exhaustive_slices": (counted(ps, "optimizer.exhaustive_slices"), "count"),
        "optimizer.greedy_slices": (counted(ps, "optimizer.greedy_slices"), "count"),
        "optimizer.members_max": (max(s["counts"].get("optimizer.members_max", 0) for s in ps), "count"),
        "changesim.cells": (cells, "count"),
        "changesim.impact_mean": (counted(ps, "changesim.impact_total") / cells if cells else 0.0, "count"),
        "cli.output_bytes": (sum(s["bytes"] for s in ps), "bytes"),
    })
    untraced_ms = statistics.median(pass_ms(p) for p in untraced)
    traced_ms = statistics.median(pass_ms(p) for p in traced)
    metrics["trace.overhead_pct"] = (100 * (traced_ms - untraced_ms) / untraced_ms, "%")
    diagnostics = {
        "passes": TRACE_PASSES,
        "untraced_pass_ms": untraced_ms,
        "traced_pass_ms": traced_ms,
        "invalid_ops": sorted(bad),
        "spans_file": str((work / "spans.jsonl").relative_to(ROOT)),
    }
    return metrics, diagnostics, len(samples), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded, calibrated benchmark of the capslice CLI")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="nominal length of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference-kernel-ms", type=float, required=True,
                        help="the reference kernel's time that calibrated times are scaled to")
    args = parser.parse_args(argv)

    if not (SRC / "capslice" / "__init__.py").is_file():
        return fail(f"no capslice sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import capslice
    import workloads

    if Path(capslice.__file__).resolve().parent != SRC / "capslice":
        return fail(f"imported capslice from {capslice.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.perf_counter()
    manifest = workloads.build_inputs(args.workload, args.seed, str((work / "inputs").relative_to(ROOT)))
    generation_s = time.perf_counter() - start
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    print(json.dumps({"inputs": manifest["properties"], "generation_s": generation_s}), flush=True)

    golden = None
    if args.seed == workloads.DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[args.workload]

    try:
        if args.trace:
            metrics, diagnostics, attempted, failed = per_layer(args, manifest_path, work, golden)
        else:
            passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
            metrics, diagnostics, attempted, failed = end_to_end(args, manifest_path, work, golden, passes)
    except RuntimeError as exc:
        return fail(str(exc))

    print(json.dumps({"diagnostics": diagnostics}), flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
