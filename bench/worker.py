"""Workload process: runs one input set through ``capslice.cli.main``.

Started by run.py with a pinned PYTHONHASHSEED, one process at a time.  It
imports capslice, makes one warm-up pass (the end of which closes the set-up
interval that began at spawn), then makes --passes timed passes.  The
reference kernel runs between every two operations, so each op can be
calibrated by its neighbours.  With --trace every second pass is traced:
it records a span around every call from the CLI into a library layer.

Everything is written as one JSON document to the result path; spans go to
a file of their own when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import sys
import time
from collections import Counter, deque
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

# -- reference kernel ----------------------------------------------------------

_KERNEL_NODES = 120
_KERNEL_ADJ = {
    i: tuple(sorted({(i * 7 + 1) % _KERNEL_NODES, (i * 13 + 5) % _KERNEL_NODES, (i * 3 + 2) % _KERNEL_NODES} - {i}))
    for i in range(_KERNEL_NODES)
}


def _kernel_body() -> tuple[Fraction, int]:
    # The program's instruction mix without the program: breadth-first
    # distances, set algebra, exact Fraction sums over distances, sorting and
    # dict stores.  Keys are ints, so the hash seed does not matter.
    total = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for src in range(0, _KERNEL_NODES, 24):
        dist = {src: 0}
        queue = deque((src,))
        while queue:
            x = queue.popleft()
            for y in _KERNEL_ADJ[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        near = frozenset(k for k, d in dist.items() if d <= 2)
        for k in sorted(frozenset(dist) - near)[:20]:
            total += Fraction(1, len(near)) / dist[k]
        ranked = sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))
        table.update(((a, b), a * b) for a, b in ranked[:40])
    return total, len(table)


def kernel_ms() -> float:
    """One run of the reference kernel in ms, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel_body()
        return (time.perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


# -- result fingerprints ---------------------------------------------------------


def result_key(text: str) -> dict:
    """The answer an op's machine output carries, independent of formatting.

    slices: the members of every slice; optimize: the candidate counts and
    the best slice; simulate: the impact matrix.
    """
    docs = [json.loads(line) for line in text.splitlines() if line]
    kinds = {d.get("type") for d in docs}
    if "comparison" in kinds:
        return {"matrix": docs[-1]["matrix"]}
    if "optimization" in kinds:
        doc = docs[-1]
        best = doc["best"]
        return {
            "candidates": doc["candidates"],
            "initial": doc.get("initial", 0),
            "best": None if best is None else best["members"],
        }
    return {"slices": [d["members"] for d in docs if d.get("type") == "slice"]}


# -- tracing ---------------------------------------------------------------------


class Recorder:
    """Spans and counts at the boundary between the CLI and the library."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: Counter = Counter()
        self.op_id = ""
        self.root = -1

    def begin_op(self, op_id: str) -> None:
        self.counts = Counter()
        self.op_id = op_id
        self.root = len(self.spans)
        self.spans.append(("cli.op", 0.0, 0.0, -1, op_id))

    def end_op(self, start: float, end: float) -> None:
        self.spans[self.root] = ("cli.op", start, end, -1, self.op_id)

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end, self.root, self.op_id))

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.record(name, start, time.perf_counter())
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def self_times(self, first: int) -> dict[str, float]:
        """Self time in seconds per span name for spans[first:]."""
        out: Counter = Counter()
        for name, start, end, parent, _ in self.spans[first:]:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)


def _count_optimize(counts: Counter, result) -> None:
    # every candidate ends up either feasible or infeasible
    for score in result.feasible + result.infeasible:
        counts["optimizer.candidates"] += 1
        counts[f"optimizer.{score.schedule.method}_slices"] += 1
        counts["optimizer.members_max"] = max(counts["optimizer.members_max"], len(score.slice.members))


def _count_compare(counts: Counter, result) -> None:
    for row in result.reports:
        for report in row:
            counts["changesim.cells"] += 1
            counts["changesim.impact_total"] += report.impact_count


def install_tracing(recorder: Recorder):
    """Wrap the library names the CLI module calls; returns an undo function."""
    import capslice.cli as cli

    base_search = cli.SliceSearch

    class TracedSearch(base_search):
        def __iter__(self):
            it = base_search.__iter__(self)
            while True:
                start = time.perf_counter()
                try:
                    slc = next(it)
                except StopIteration:
                    return
                finally:
                    recorder.record("slicing.enumerate", start, time.perf_counter())
                recorder.counts["slicing.slices_emitted"] += 1
                yield slc

    def scored(n):
        return lambda counts, result: counts.update({"slicing.slices_scored": n(result)})

    wrappers = {
        "parse_graph": ("graph.parse", None),
        "validate": ("graph.parse", None),
        "slice_objective": ("slicing.score", scored(lambda r: 1)),
        "score_slices": ("slicing.score", scored(len)),
        "rank_slices": ("slicing.rank", None),
        "make_slice": ("slicing.make_slice", None),
        "optimize": ("optimizer.optimize", _count_optimize),
        "compare_slices": ("changesim.compare", _count_compare),
    }
    # names a later version of the CLI no longer calls are simply not traced
    replacements = {"SliceSearch": TracedSearch}
    for name, (layer, count) in wrappers.items():
        if hasattr(cli, name):
            replacements[name] = recorder.wrap(layer, getattr(cli, name), count)
    originals = {name: getattr(cli, name) for name in replacements}
    for name, fn in replacements.items():
        setattr(cli, name, fn)

    def undo() -> None:
        for name, fn in originals.items():
            setattr(cli, name, fn)

    return undo


# -- running ops -----------------------------------------------------------------


def run_op(main, argv: list[str]) -> tuple[int | None, str]:
    """Exit code and captured stdout; code None means the op raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a raising op is a failed op, not a failed run
        return None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--passes", type=int, default=0, help="timed passes after the warm-up pass")
    parser.add_argument("--trace", action="store_true", help="trace every second pass")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--spans", default=None, help="where a trace run writes its spans")
    args = parser.parse_args()

    with open(args.manifest, encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]

    from capslice.cli import main as cli_main

    # Warm-up pass: its outputs are the reference for every later pass.  The
    # kernel runs between ops, outside the setup segments it calibrates.
    segments = [{"wall_ms": (time.monotonic() - args.t0) * 1000.0, "kernel_after_ms": kernel_ms()}]
    warm: dict[str, dict] = {}
    for op in ops:
        start = time.perf_counter()
        code, text = run_op(cli_main, op["argv"])
        wall = time.perf_counter() - start
        segments.append({"wall_ms": wall * 1000.0, "kernel_before_ms": segments[-1]["kernel_after_ms"],
                         "kernel_after_ms": kernel_ms()})
        entry = {"code": code, "sha256": hashlib.sha256(text.encode()).hexdigest(), "text": text}
        try:
            entry["matches_library"] = code == 0 and result_key(text) == op["expect"]
        except (ValueError, KeyError, TypeError, IndexError):
            entry["matches_library"] = False
        warm[op["id"]] = entry
    result: dict = {
        "setup_segments": segments,
        "warmup": {k: {"code": v["code"], "sha256": v["sha256"], "matches_library": v["matches_library"]}
                   for k, v in warm.items()},
    }

    recorder = Recorder()
    samples = []
    k_prev = segments[-1]["kernel_after_ms"]
    for p in range(args.passes):
        traced = args.trace and p % 2 == 1
        undo = install_tracing(recorder) if traced else None
        try:
            for op in ops:
                reference = warm[op["id"]]["text"]
                first = len(recorder.spans)
                if traced:
                    recorder.begin_op(op["id"])
                start = time.perf_counter()
                code, text = run_op(cli_main, op["argv"])
                end = time.perf_counter()
                k_next = kernel_ms()
                sample = {
                    "op": op["id"],
                    "pass_index": p,
                    "traced": traced,
                    "wall_ms": (end - start) * 1000.0,
                    "kernel_before_ms": k_prev,
                    "kernel_after_ms": k_next,
                    "ok": code == 0 and text == reference,
                    "bytes": len(text.encode()),
                }
                if traced:
                    recorder.end_op(start, end)
                    sample["self_s"] = recorder.self_times(first)
                    sample["counts"] = dict(recorder.counts)
                    sample["ok"] = sample["ok"] and result_key(text) == result_key(reference)
                samples.append(sample)
                k_prev = k_next
        finally:
            if undo is not None:
                undo()
    result["samples"] = samples
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op"), span))) + "\n")

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
