"""Checks of the benchmark itself; not part of the repository's test suite.

    python3 -m pytest -q bench/bench_checks.py

They take a few minutes: input generation runs several times, and one
workload runs end to end in both modes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# Prints a digest of every input set for one seed: manifest and file bytes.
DIGEST = """
import hashlib, json, os, sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
digest = hashlib.sha256()
with tempfile.TemporaryDirectory(dir={work!r}) as tmp:
    os.chdir(tmp)
    for name in workloads.WORKLOADS:
        manifest = workloads.build_inputs(name, {seed}, name)
        digest.update(json.dumps(manifest, sort_keys=True).encode())
        for root, _, files in sorted(os.walk(name)):
            for f in sorted(files):
                with open(os.path.join(root, f), "rb") as fh:
                    digest.update(fh.read())
print(digest.hexdigest())
"""


def _digest(seed: int, hash_seed: str) -> str:
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    code = DIGEST.format(src=str(ROOT / "src"), bench=str(BENCH), work=str(work), seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_generators_are_deterministic_for_a_seed():
    # different hash seeds change set iteration order, never the inputs
    first = _digest(7, "1")
    assert _digest(7, "2") == first
    assert _digest(8, "1") != first


def test_golden_fingerprints_match():
    from make_golden import golden_hashes

    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        assert golden_hashes(name) == golden[name], name


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cmd = spec["command"] + ["--workload", "slices_shared", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[section]}


def test_refuses_to_run_without_the_program():
    # a checkout holding only the benchmark exits non-zero and prints no result
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bench_copy = bare / "bench"
    bench_copy.mkdir(parents=True)
    for f in BENCH.glob("*.py"):
        (bench_copy / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cmd = spec["command"] + ["--workload", "slices_shared", "--seed", "1", "--seconds", "1", "--trace", "0"]
    (bare / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
