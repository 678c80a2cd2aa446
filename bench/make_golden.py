"""Write golden.json: the SHA-256 of every op's machine output for the
default seed, per workload.

    python3 bench/make_golden.py

The benchmark compares the warm-up pass of a default-seed run against these
hashes.  Regenerate them only for a change that means to alter machine
output, and say so where the change is recorded.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from worker import run_op  # noqa: E402


def golden_hashes(workload: str) -> dict[str, str]:
    """Hash of each op's output for the default seed, computed in-process."""
    from capslice.cli import main as cli_main

    out_dir = ROOT / ".bench_work" / "golden" / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    manifest = workloads.build_inputs(workload, workloads.DEFAULT_SEED, str(out_dir))
    hashes = {}
    for op in manifest["ops"]:
        code, text = run_op(cli_main, op["argv"])
        if code != 0:
            raise RuntimeError(f"{workload} {op['id']} exited with {code}: {text[:200]}")
        hashes[op["id"]] = hashlib.sha256(text.encode()).hexdigest()
    return hashes


def main() -> int:
    golden = {name: golden_hashes(name) for name in workloads.WORKLOADS}
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
