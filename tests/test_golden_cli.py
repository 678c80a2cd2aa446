"""Byte-identical CLI output, checked against committed fingerprints.

Every subcommand runs in-process through ``cli.main``, in both output
formats, on the bundled fig2 graph and on seeded random graphs, the last
of them relabelled with ids that need JSON escapes and non-ASCII.  Each case
stores one SHA-256 of (exit code, stdout, stderr) in ``golden_cli.json``,
keyed ``<input>/<case>/<format>``, so a failure names the case whose output
moved.  ``python3 tests/make_golden_cli.py`` rewrites the file; a change
that does so must say why.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from capslice.cli import main
from capslice.fixtures import fig2_text
from capslice.graph import parse_graph, serialize_graph
from capslice.slicing import enumerate_slices
from conftest import awkward_ids, random_fd_graph, random_scenario, relabeled

GOLDEN = Path(__file__).with_name("golden_cli.json")
SEEDS = range(24)
FORMATS = ("machine", "text")


def _scenario_doc(sc) -> dict:
    return {"kind": sc.kind.value, "target": sc.target, "payload": sc.payload}


def _without_kinds(text: str) -> str:
    doc = json.loads(text)
    for edge in doc["edges"]:
        del edge["kind"]
    return json.dumps(doc)


def _broken(rng, text: str) -> str:
    # a stated edge kind the degrees contradict and one missing relevance
    doc = json.loads(text)
    edge = rng.choice(doc["edges"])
    edge["kind"] = "intersection" if edge["kind"] != "intersection" else "decomposition"
    rng.choice([e for e in doc["edges"] if "relevance" in e]).pop("relevance")
    return json.dumps(doc)


def _sources():
    """(name, graph file text, a valid graph to draw arguments from, rng)."""
    yield "fig2", fig2_text(), parse_graph(fig2_text()), random.Random("fig2")
    for seed in SEEDS:
        rng = random.Random(seed)
        graph = random_fd_graph(rng, max_internal=10, max_directives=16)
        text = serialize_graph(graph)
        # odd seeds leave every edge kind to the parser's inference
        yield f"s{seed:02d}", _without_kinds(text) if seed % 2 else text, graph, rng
        if seed % 4 == 0:
            rng = random.Random(f"{seed}-broken")
            yield f"s{seed:02d}-broken", _broken(rng, text), graph, rng
    rng = random.Random("awkward-6")  # 7 functions and 12 slices
    base = random_fd_graph(rng, max_internal=10, max_directives=16)
    graph = relabeled(base, awkward_ids(rng, base.node_ids))
    yield "awkward", serialize_graph(graph), graph, rng


def _inputs(workdir: Path):
    """(input name, {case: argv}) per input, every argument seeded."""
    for name, text, graph, rng in _sources():
        path = workdir / f"{name}.json"
        path.write_text(text)
        funs = list(graph.function_ids)
        slices = [s.members for s in enumerate_slices(graph, max_slices=50).slices]
        picked = rng.sample(slices, min(2, len(slices)))
        config = workdir / f"{name}.config.json"
        config.write_text(json.dumps(_config(rng, funs)))
        cases = {
            "validate": ["validate", path],
            "metrics": ["metrics", path],
            "slices": ["slices", path],
            "slices-initial-only": ["slices", path, "--initial-only"],
            "slices-max-1": ["slices", path, "--max-slices", "1"],
            "optimize": ["optimize", path, config],
            "optimize-lambda": ["optimize", path, config, "--lambda", "0.5"],
            "optimize-max-2": ["optimize", path, config, "--max-slices", "2"],
            "export-dot": ["export", path],
        }
        if len(funs) >= 2:
            pair = rng.sample(funs, rng.randint(2, min(3, len(funs))))
            cases["metrics-pairs"] = ["metrics", path, "--pairs", ",".join(pair)]
        if picked:
            members = ",".join(picked[0])
            cases["export-dot-slice"] = ["export", path, "--slice", members]
            cases["export-manifest"] = ["export", path, "--manifest", "--slice", members]
            scenarios = workdir / f"{name}.scenarios.json"
            docs = [_scenario_doc(random_scenario(rng, graph)) for _ in range(3)]
            scenarios.write_text(json.dumps(docs, default=float))  # Fraction weights
            argv = ["simulate", path, scenarios]
            for members in picked:
                argv += ["--slice", ",".join(members)]
            cases["simulate"] = argv
            # drawn last, so the arguments of every case above stay as they were
            first = ",".join(picked[0])
            cases["metrics-slice"] = ["metrics", path, "--slice", first]
            if len(picked[0]) >= 2:
                pair = ",".join(rng.sample(picked[0], 2))
                cases["metrics-slice-pairs"] = ["metrics", path, "--slice", first, "--pairs", pair]
        yield name, cases


def _config(rng, funs) -> dict:
    doc = {"lambda": rng.choice([0.5, 1, 2])}
    if rng.random() < 0.5:
        doc["weights"] = dict(f=rng.randint(1, 5), tf=rng.randint(0, 3), sched=rng.randint(0, 3))
    if funs and rng.random() < 0.7:
        doc["tf"] = {f: rng.choice([0.2, 0.6, 1]) for f in rng.sample(funs, len(funs) // 2)}
        doc["tf_min"] = rng.choice([0, 0.3, 0.5])
    if funs and rng.random() < 0.5:
        doc["times"] = {f: rng.randint(1, 9) for f in funs}
        doc["sched_max"] = rng.choice([10, 30, 100])
    return doc


def fingerprints(workdir: Path) -> dict[str, str]:
    """SHA-256 of (exit code, stdout, stderr) for every case, keyed by name.

    The working directory is written out as ``<dir>``, so a fingerprint does
    not depend on where the input files live.
    """
    out = {}
    for name, cases in _inputs(workdir):
        for case, argv in cases.items():
            for fmt in FORMATS:
                stdout, stderr = io.StringIO(), io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    rc = main([str(a) for a in argv] + ["--format", fmt])
                record = "\0".join((str(rc), stdout.getvalue(), stderr.getvalue()))
                record = record.replace(str(workdir), "<dir>")
                out[f"{name}/{case}/{fmt}"] = hashlib.sha256(record.encode()).hexdigest()
    return out


def test_cli_output_matches_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = fingerprints(tmp_path)
    assert sorted(actual) == sorted(expected)
    moved = [key for key in expected if actual[key] != expected[key]]
    assert not moved, f"{len(moved)} of {len(expected)} outputs changed: {moved[:10]}"
