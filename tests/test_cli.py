import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import capslice.cli as cli_module
from capslice.cli import CONFIG_ENV, EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, _parsers, main
from capslice.changesim import ChangeError, ScenarioKind, compare_slices, parse_scenarios
from capslice.fixtures import fig2_path, fig2_text
from capslice.graph import build_graph, serialize_graph
from capslice.metrics import MembershipError
from capslice.rational import to_fraction
from capslice.slicing import SliceSearch, make_slice, rank_slices, slice_objective
from conftest import awkward_ids, random_fd_graph, random_scenario, relabeled
from oracles import comparison_doc_reference, slice_doc_reference
from test_golden_cli import FORMATS as GOLDEN_FORMATS, _inputs as golden_inputs

FIG = str(fig2_path())

S1 = "n_1,n_3,n_7"
S2 = "n_2,n_3,n_5"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def machine_docs(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line]


def test_closed_stdout_exits_ok(monkeypatch):
    # a reader that went away (`capslice slices ... | head`) ends the run quietly
    class Closed:
        def isatty(self):
            return False

        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["slices", FIG]) == EXIT_OK


# -- validate ---------------------------------------------------------------------


def test_validate_ok_text(capsys):
    rc, out, _ = run(capsys, "validate", FIG, "--format", "text")
    assert rc == EXIT_OK
    assert out.strip() == "ok: 24 nodes, 27 edges"


def test_validate_ok_machine(capsys):
    rc, out, _ = run(capsys, "validate", FIG, "--format", "machine")
    assert rc == EXIT_OK
    (doc,) = machine_docs(out)
    assert doc == {"type": "validation", "ok": True, "violations": []}


def test_validate_broken_graph(tmp_path, capsys):
    doc = json.loads(fig2_text())
    doc["edges"] = [e for e in doc["edges"] if (e["from"], e["to"]) != ("n_7", "d_9")]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))

    rc, out, _ = run(capsys, "validate", str(path), "--format", "machine")
    assert rc == EXIT_DOMAIN
    (report,) = machine_docs(out)
    assert report["ok"] is False
    assert report["violations"]
    assert {"code", "subject", "message"} <= set(report["violations"][0])

    # every other command refuses to work on the invalid graph
    rc, _, err = run(capsys, "metrics", str(path), "--format", "machine")
    assert rc == EXIT_DOMAIN
    assert "graph is invalid" in err


def test_validate_parse_error_is_usage(tmp_path, capsys):
    path = tmp_path / "notjson.json"
    path.write_text("not json")
    rc, _, err = run(capsys, "validate", str(path))
    assert rc == EXIT_USAGE
    assert "invalid JSON" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "DEEP"],
        ["optimize", FIG, "DEEP"],
        ["simulate", FIG, "DEEP", "--slice", S1],
    ],
    ids=["validate-graph", "optimize-config", "simulate-scenarios"],
)
def test_deep_json_is_usage(tmp_path, capsys, argv):
    # nested past the JSON decoder's recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    argv = [str(path) if a == "DEEP" else a for a in argv]
    rc, out, err = run(capsys, *argv, "--format", "machine")
    assert rc == EXIT_USAGE
    assert err.startswith("error: ") and "nested too deeply" in err
    assert out == ""


def _first_relevance(value: str) -> str:
    # fig2 with its first relevance replaced by a raw JSON number
    doc = json.loads(fig2_text())
    edge = next(e for e in doc["edges"] if "relevance" in e)
    edge["relevance"] = "RAW"
    return json.dumps(doc).replace('"RAW"', value)


SCENARIO = '[{"kind": "delete_directive", "target": "d_1"}]'


@pytest.mark.parametrize(
    "argv, text",
    [
        (["validate", "FILE"], "GRAPH"),
        (["optimize", FIG, "FILE"], '{"tf_min": 1e-5000}'),
        (["simulate", FIG, "FILE", "--slice", S1], SCENARIO.replace("}", ', "x": 1e-5000}')),
        (["slices", FIG, "--lambda", "1e-5000"], None),
        (["simulate", FIG, "FILE", "--slice", S1, "--threshold", "1e-5000"], SCENARIO),
    ],
    ids=["graph", "optimize-config", "simulate-scenarios", "lambda", "threshold"],
)
def test_huge_exponent_is_usage(tmp_path, capsys, argv, text):
    # Fraction would build 10**5000, and far larger powers for longer
    # exponents, so the exponent is refused wherever a number comes in
    path = tmp_path / "input.json"
    if text == "GRAPH":
        doc = json.loads(fig2_text())
        next(e for e in doc["edges"] if "relevance" in e)["relevance"] = "RAW"
        text = json.dumps(doc).replace('"RAW"', "1e-5000")
    if text is not None:
        path.write_text(text)
    argv = [str(path) if a == "FILE" else a for a in argv]
    rc, out, err = run(capsys, *argv, "--format", "machine")
    assert rc == EXIT_USAGE and out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["optimize", FIG, "FILE"], '{"lambda": "1/0"}'),
        (["optimize", FIG, "FILE"], '{"tf": {"n_1": "3/0"}}'),
        (["slices", FIG, "--lambda", "1/0"], None),
        (["simulate", FIG, "FILE", "--slice", S1, "--threshold", "1/0"], SCENARIO),
        (["export", FIG, "--slice", S1, "--lambda", "5/0"], None),
    ],
    ids=["optimize-lambda", "optimize-tf", "slices-lambda", "threshold", "export-lambda"],
)
def test_zero_denominator_is_usage(tmp_path, capsys, argv, text):
    # Fraction("1/0") raises ZeroDivisionError; every number read from a
    # flag or a config refuses it as a usage error instead
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if a == "FILE" else a for a in argv]
    rc, out, err = run(capsys, *argv, "--format", "machine")
    assert rc == EXIT_USAGE and out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err and "/0" in err


def test_malformed_number_flag_is_usage(capsys):
    rc, out, err = run(capsys, "slices", FIG, "--lambda", "1e")
    assert rc == EXIT_USAGE and out == ""
    assert err.splitlines()[-1].endswith("error: argument --lambda: not a number: '1e'")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["slices", FIG, "--lambda", "1e5000"],
            "--lambda: decimal exponent of '1e5000' exceeds 4300",
        ),
        (
            ["simulate", FIG, "FILE", "--slice", S1, "--threshold", "1e-5000"],
            "--threshold: decimal exponent of '1e-5000' exceeds 4300",
        ),
        (["slices", FIG, "--lambda", "1/0"], "--lambda: zero denominator in '1/0'"),
    ],
    ids=["lambda-exponent", "threshold-exponent", "lambda-zero-denominator"],
)
def test_refused_number_flag_names_the_reason(tmp_path, capsys, argv, message):
    # a well-formed literal that to_fraction refuses says why, as it does
    # in a config file; only text that is no number is "not a number"
    path = tmp_path / "scenarios.json"
    path.write_text(SCENARIO)
    argv = [str(path) if a == "FILE" else a for a in argv]
    rc, out, err = run(capsys, *argv, "--format", "machine")
    assert rc == EXIT_USAGE and out == ""
    assert err.splitlines()[-1].endswith(f"error: argument {message}")


HUGE_LAMBDA = '{"lambda": 1e400}'
HUGE_TIME = '{"times": {"n_1": 1e400}}'


@pytest.mark.parametrize(
    "argv, text",
    [
        (["slices", FIG, "--lambda", "1e400", "--format", "machine"], None),
        (["export", FIG, "--slice", S1, "--manifest", "--lambda", "1e400"], None),
        (["export", FIG, "--slice", S1, "--manifest", "--lambda", "1e400", "--format", "text"],
         None),
        (["optimize", FIG, "FILE", "--format", "machine"], HUGE_LAMBDA),
        (["optimize", FIG, "FILE", "--format", "machine"], HUGE_TIME),
    ],
    ids=["slices", "manifest", "manifest-text", "optimize-lambda", "optimize-times"],
)
def test_too_large_for_json_is_usage(tmp_path, capsys, argv, text):
    # a JSON number is a double: float() of 10**400 overflows
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if a == "FILE" else a for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == EXIT_USAGE and out == ""
    assert err.splitlines() == [
        "error: a value is too large for JSON output: "
        "integer division result too large for a float"
    ]


def test_slices_stops_after_streamed_lines(tmp_path, capsys):
    # {a} has no pairs, so its aggregate is its cohesion; {b, c} couples and
    # overflows under a huge lambda, after {a} has been written
    doc = {
        "nodes": [{"id": i, "kind": k} for i, k in [
            ("m", "mission"), ("a", "function"), ("b", "function"), ("c", "function"),
            ("x", "directive"), ("y", "directive")]],
        "edges": [{"from": u, "to": v} for u, v in [("m", "a"), ("a", "b"), ("a", "c")]]
        + [{"from": u, "to": v, "relevance": 0.7} for u, v in [("b", "x"), ("c", "y")]],
    }
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "slices", str(path), "--format", "machine")
    assert rc == EXIT_OK and [d["members"] for d in machine_docs(out)[:2]] == [["a"], ["b", "c"]]
    rc, out, err = run(capsys, "slices", str(path), "--lambda", "1e400", "--format", "machine")
    assert rc == EXIT_USAGE and len(err.splitlines()) == 1
    assert [d["members"] for d in machine_docs(out)] == [["a"]]


@pytest.mark.parametrize(
    "argv, text, shown",
    [
        (["slices", FIG, "--lambda", "1e400", "--format", "text"], None, "mean f = -5313580"),
        (["export", FIG, "--slice", S1, "--lambda", "1e400"], None, 'label=\\"f = -40805'),
        (["export", FIG, "--slice", S1, "--lambda", "1e400", "--format", "text"], None,
         'label="f = -40805'),
        (["optimize", FIG, "FILE", "--format", "text"], HUGE_LAMBDA, "f=-40805"),
        (["optimize", FIG, "FILE", "--format", "text"], HUGE_TIME, "makespan=15.0000"),
    ],
    ids=["slices", "dot-machine", "dot-text", "optimize-lambda", "optimize-times"],
)
def test_text_renders_any_magnitude(tmp_path, capsys, argv, text, shown):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if a == "FILE" else a for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == EXIT_OK and err == ""
    assert shown in out


def test_parse_errors_are_short(tmp_path, capsys):
    # an id nested 300 lists deep used to be echoed in full
    doc = json.loads(fig2_text())
    deep = "x"
    for _ in range(300):
        deep = [deep]
    doc["nodes"][3]["id"] = deep
    path = tmp_path / "deep-id.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "validate", str(path))
    assert rc == EXIT_USAGE and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: node entry 3") and len(line) < 200


def _fig2_with(section: str, index: int, key: str, raw: str) -> str:
    # fig2 with one field of one node or edge replaced by raw JSON text
    doc = json.loads(fig2_text())
    doc[section][index][key] = "RAW"
    return json.dumps(doc).replace('"RAW"', raw)


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (
            ["validate", "FILE"],
            _fig2_with("edges", 0, "kind", "5"),
            "edge entry 0: unknown edge kind 5",
        ),
        (
            ["validate", "FILE"],
            _fig2_with("nodes", 1, "kind", "7"),
            "node entry 1: unknown node kind 7",
        ),
        (
            ["validate", "FILE"],
            _fig2_with("edges", 8, "relevance", "1e4300"),
            f"edge entry 8: relevance 1{'0' * 17}...{'0' * 18} on 'n_3' -> 'd_10' outside (0, 1]",
        ),
        (
            ["simulate", FIG, "FILE", "--slice", S1],
            '[{"kind": "delete_directive", "target": [1]}]',
            "scenario entry 0: target must be a string: [1]",
        ),
        (
            ["validate", "FILE"],
            _fig2_with("nodes", 1, "label", "null"),
            "node entry 1: label must be a string, got None",
        ),
        (
            ["export", "FILE"],
            _fig2_with("nodes", 1, "label", "5"),
            "node entry 1: label must be a string, got 5",
        ),
    ],
    ids=[
        "edge-kind", "node-kind", "huge-relevance", "scenario-target", "node-label",
        "node-label-export",
    ],
)
def test_malformed_field_is_usage(tmp_path, capsys, argv, text, message):
    # each is one parse error naming the field, never a traceback or a pass
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [str(path) if a == "FILE" else a for a in argv]
    rc, out, err = run(capsys, *argv, "--format", "machine")
    assert rc == EXIT_USAGE and out == ""
    assert err == f"error: {message}\n"


def test_missing_file_is_usage(tmp_path, capsys):
    rc, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert rc == EXIT_USAGE
    assert "cannot read" in err


@pytest.mark.parametrize("role", ["graph", "scenarios", "config"])
def test_undecodable_file_is_usage_naming_it(tmp_path, capsys, role):
    # a file that is not UTF-8 is a read failure like a missing one, whichever
    # input it is
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b"\xff{}")
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SCENARIOS))
    argv = {
        "graph": ["validate", str(bad)],
        "scenarios": ["simulate", FIG, str(bad), "--slice", S1],
        "config": ["optimize", FIG, str(bad)],
    }[role]
    rc, out, err = run(capsys, *argv, "--format", "machine")
    assert (rc, out) == (EXIT_USAGE, "")
    assert err == (
        f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff in position 0:"
        " invalid start byte\n"
    )


def test_bad_subcommand_and_help(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()
    assert main([]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


# -- metrics ----------------------------------------------------------------------


def test_metrics_text_table(capsys):
    rc, out, _ = run(capsys, "metrics", FIG, "--format", "text")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0].split() == ["node", "size", "cohesion"]
    assert lines[1].split() == ["n_1", "5", "0.5667"]
    assert lines[0] == "node  size  cohesion"
    assert lines[1] == "n_1      5  0.5667"
    assert "n_7      4  0.5250" in out
    assert "n_4      2  0.7000  refinement" in out
    # one row per function, nothing for mission or directives
    assert len(lines) == 10


def test_metrics_machine_nodes(capsys):
    rc, out, _ = run(capsys, "metrics", FIG, "--format", "machine")
    assert rc == EXIT_OK
    (doc,) = machine_docs(out)
    assert doc["type"] == "metrics"
    rows = {row["id"]: row for row in doc["nodes"]}
    assert set(rows) == {f"n_{i}" for i in range(1, 10)}
    assert rows["n_7"]["cohesion"] == 0.525
    assert rows["n_2"]["size"] == 7
    assert rows["n_4"]["refinement"] is True
    assert rows["n_3"]["refinement"] is False
    assert "pairs" not in doc


def test_metrics_pairs_within_slice(capsys):
    rc, out, _ = run(
        capsys, "metrics", FIG, "--pairs", "n_1,n_3,n_7", "--slice", S1, "--format", "text"
    )
    assert rc == EXIT_OK
    assert "Cp(n_1,n_3) = 0.0347" in out
    assert "Cp(n_1,n_7) = 0.0542" in out
    assert "Cp(n_7,n_1) = 0.0433" in out
    assert out.count("Cp(") == 6


def test_metrics_pairs_shared_owner(capsys):
    rc, out, _ = run(
        capsys, "metrics", FIG, "--pairs", "n_5,n_6",
        "--slice", "n_3,n_5,n_6,n_7", "--format", "text",
    )
    assert rc == EXIT_OK
    assert "Cp(n_5,n_6) = 0.1667" in out
    # a repeated id is listed once: still two distinct functions
    rc, again, _ = run(
        capsys, "metrics", FIG, "--pairs", "n_5,n_6,n_5",
        "--slice", "n_3,n_5,n_6,n_7", "--format", "text",
    )
    assert rc == EXIT_OK and again == out


def test_metrics_pairs_standalone(capsys):
    # no slice context: membership is resolved for just the listed functions
    rc, out, _ = run(capsys, "metrics", FIG, "--pairs", "n_1,n_9", "--format", "machine")
    assert rc == EXIT_OK
    (doc,) = machine_docs(out)
    pairs = {(p["from"], p["to"]): p["coupling"] for p in doc["pairs"]}
    assert pairs[("n_1", "n_9")] == pytest.approx(1 / 12)
    assert pairs[("n_9", "n_1")] == pytest.approx(1 / 30)


def test_metrics_pairs_usage_errors(capsys):
    rc, _, err = run(capsys, "metrics", FIG, "--pairs", "n_1,d_3")
    assert rc == EXIT_USAGE and "function nodes" in err
    rc, _, err = run(capsys, "metrics", FIG, "--pairs", "n_1")
    assert rc == EXIT_USAGE and "at least two" in err
    rc, out, err = run(capsys, "metrics", FIG, "--pairs", "n_1,n_1")
    assert rc == EXIT_USAGE and "at least two" in err and out == ""
    rc, _, err = run(capsys, "metrics", FIG, "--pairs", "n_1,zz")
    assert rc == EXIT_USAGE and "unknown node" in err
    rc, _, err = run(capsys, "metrics", FIG, "--pairs", "n_1,n_2", "--slice", S1)
    assert rc == EXIT_USAGE and "outside the slice" in err
    rc, _, err = run(capsys, "metrics", FIG, "--pairs", " , ")
    assert rc == EXIT_USAGE and "empty id list" in err


def test_metrics_pairs_unresolvable_is_domain(capsys):
    # n_1 and n_2 share the entry parent n_6 for d_3
    rc, _, err = run(capsys, "metrics", FIG, "--pairs", "n_1,n_2")
    assert rc == EXIT_DOMAIN
    assert "d_3" in err


@pytest.mark.parametrize("ids", ["n_3,n_9", "n_8,n_9"])
def test_metrics_pairs_empty_member_is_domain(capsys, ids):
    # n_9 ties n_3 (via n_8) and n_8 on d_13 and d_14 and loses both to the
    # smaller id, so it owns nothing to couple
    rc, out, err = run(capsys, "metrics", FIG, "--pairs", ids, "--format", "machine")
    assert rc == EXIT_DOMAIN
    assert out == ""
    assert err == "error: --pairs member n_9 owns no directives after resolution\n"


def test_metrics_invalid_slice_is_domain(capsys):
    rc, _, err = run(capsys, "metrics", FIG, "--slice", "n_1,n_5")
    assert rc == EXIT_DOMAIN
    assert "ANCESTOR_PAIR" in err
    assert "UNCOVERED" in err


@pytest.mark.parametrize("fmt", ["machine", "text"])
@pytest.mark.parametrize("command", ["validate", "metrics", "slices", "optimize", "export"])
def test_graph_without_functions(tmp_path, capsys, command, fmt):
    # a valid graph: the mission refines straight into its one directive
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({
        "nodes": [{"id": "m", "kind": "mission"}, {"id": "d", "kind": "directive"}],
        "edges": [{"from": "m", "to": "d", "relevance": 0.7}],
    }))
    rc, out, err = run(capsys, command, str(path), "--format", fmt)
    assert rc == EXIT_OK, err
    if command == "metrics" and fmt == "text":
        assert out == "node  size  cohesion\n"


# -- slices -----------------------------------------------------------------------


def test_slices_machine_stream(capsys):
    rc, out, _ = run(capsys, "slices", FIG, "--format", "machine")
    assert rc == EXIT_OK
    docs = machine_docs(out)
    assert [d["type"] for d in docs] == ["slice", "slice", "slice", "summary"]
    members = [d["members"] for d in docs[:3]]
    assert members == [
        ["n_1", "n_3", "n_7"],
        ["n_2", "n_3", "n_5"],
        ["n_3", "n_5", "n_6", "n_7"],
    ]
    first = docs[0]
    assert first["f"] == pytest.approx(6677 / 12000)
    assert first["mean_cohesion"] == pytest.approx(43 / 72)
    assert first["mean_coupling"] == pytest.approx(1469 / 36000)
    assert first["membership"]["d_3"] == "n_1"
    assert first["coupling"]["n_1->n_3"] == pytest.approx(13 / 375)

    summary = docs[3]
    assert summary["count"] == 3
    assert summary["complete"] is True
    assert summary["mean_f"] == pytest.approx(1232713 / 2268000)
    assert summary["ranking"] == [
        ["n_2", "n_3", "n_5"],
        ["n_1", "n_3", "n_7"],
        ["n_3", "n_5", "n_6", "n_7"],
    ]
    assert summary["initial"] == [["n_2", "n_3", "n_5"], ["n_1", "n_3", "n_7"]]


def test_slices_text(capsys):
    rc, out, _ = run(capsys, "slices", FIG, "--format", "text")
    assert rc == EXIT_OK
    assert "slice n_1,n_3,n_7" in out
    assert "  f = 0.5564" in out
    assert "n_5->n_6=0.1667" in out
    assert "3 slices, mean f = 0.5435" in out
    assert "ranking: n_2,n_3,n_5 *  n_1,n_3,n_7 *  n_3,n_5,n_6,n_7" in out
    assert "TRUNCATED" not in out


def test_slices_truncated(capsys):
    rc, out, _ = run(capsys, "slices", FIG, "--max-slices", "1", "--format", "machine")
    assert rc == EXIT_OK
    docs = machine_docs(out)
    assert [d["type"] for d in docs] == ["slice", "summary"]
    assert docs[0]["members"] == ["n_1", "n_3", "n_7"]
    assert docs[1]["complete"] is False
    assert docs[1]["count"] == 1

    rc, out, _ = run(capsys, "slices", FIG, "--max-slices", "1", "--format", "text")
    assert rc == EXIT_OK
    assert "TRUNCATED: enumeration stopped early" in out


def test_slices_max_slices_not_reached(capsys):
    rc, out, _ = run(capsys, "slices", FIG, "--max-slices", "10", "--format", "machine")
    assert rc == EXIT_OK
    assert machine_docs(out)[-1]["complete"] is True


def test_slices_initial_only(capsys):
    rc, out, _ = run(capsys, "slices", FIG, "--initial-only", "--format", "machine")
    assert rc == EXIT_OK
    docs = machine_docs(out)
    # ranked order, above-mean entries only, then the summary
    assert [d["members"] for d in docs[:-1]] == [
        ["n_2", "n_3", "n_5"],
        ["n_1", "n_3", "n_7"],
    ]
    assert docs[-1]["count"] == 3


def test_slices_lambda_zero(capsys):
    rc, out, _ = run(capsys, "slices", FIG, "--lambda", "0", "--format", "machine")
    assert rc == EXIT_OK
    docs = machine_docs(out)
    for doc in docs[:-1]:
        assert doc["f"] == pytest.approx(doc["mean_cohesion"])


def test_slices_bad_flags(capsys):
    rc, _, err = run(capsys, "slices", FIG, "--max-slices", "0")
    assert rc == EXIT_USAGE and "max_slices" in err
    rc, _, _ = run(capsys, "slices", FIG, "--lambda", "abc")
    assert rc == EXIT_USAGE
    rc, out, err = run(capsys, "slices", FIG, "--time-budget", "nan")
    assert rc == EXIT_USAGE and "time_budget" in err
    assert out == ""
    # the scoring thread pool and its flag are gone
    rc, out, err = run(capsys, "slices", FIG, "--jobs", "2")
    assert rc == EXIT_USAGE and "--jobs" in err
    assert out == ""
    # so is the unused --seed
    rc, out, err = run(capsys, "slices", FIG, "--seed", "3")
    assert rc == EXIT_USAGE and "--seed" in err
    assert out == ""


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _slice_lines(capsys, path, *flags) -> list[str]:
    """The slice lines of one machine-format slices run, summary dropped."""
    rc, out, err = run(capsys, "slices", str(path), *flags, "--format", "machine")
    assert rc == EXIT_OK and err == ""
    lines = out.split("\n")
    assert lines.pop() == ""
    assert json.loads(lines.pop())["type"] == "summary"
    return lines


def test_slice_lines_equal_json_dumps_of_the_reference(tmp_path, capsys):
    # Ids mix JSON escapes, non-ASCII, astral characters, "->" and prefix
    # pairs, so raw key order and escaped order disagree and, on graphs with
    # a function id that is a prefix of another, (p, q) order differs from
    # "p->q" order.  The same ids come back in later graphs with other
    # values, so nothing may be cached from one call to the next.
    rng = random.Random(2024)
    counts = {"slices": 0, "initial": 0, "prefixed": 0}
    for i in range(60):
        base = random_fd_graph(rng, max_internal=8, max_directives=10)
        graph = relabeled(base, awkward_ids(rng, base.node_ids))
        funs = graph.function_ids
        counts["prefixed"] += any(b.startswith(a) for a, b in zip(funs, funs[1:]))
        path = tmp_path / f"g{i}.json"
        path.write_text(serialize_graph(graph))
        scored = [(s, slice_objective(graph, s)) for s in SliceSearch(graph)]
        expected = [_dumps(slice_doc_reference(s, m)) for s, m in scored]
        assert _slice_lines(capsys, path) == expected
        assert _slice_lines(capsys, path, "--max-slices", "1") == expected[:1]
        initial = []
        if scored:
            ranking = rank_slices([s for s, _ in scored], [m for _, m in scored])
            initial = [
                _dumps(slice_doc_reference(e.slice, e.metrics)) for e in ranking.initial_entries
            ]
        assert _slice_lines(capsys, path, "--initial-only") == initial
        counts["slices"] += len(expected)
        counts["initial"] += len(initial)
    assert counts == {"slices": 186, "initial": 104, "prefixed": 27}


def test_coupling_keys_that_collide_keep_the_later_pair(tmp_path, capsys):
    # ("a", "b->c") and ("a->b", "c") both give the key "a->b->c": the
    # later pair in (p, q) order keeps it, and the mean counts all 12 pairs
    ids = ("a", "a->b", "b->c", "c")
    own = {"a": ("x1",), "a->b": ("x2",), "b->c": ("x3", "x4"), "c": ("x5",)}
    graph = build_graph(
        [("m", "mission")]
        + [(f, "function") for f in ids]
        + [(d, "directive") for f in ids for d in own[f]],
        [("m", f) for f in ids] + [(f, d, None, "critical") for f in ids for d in own[f]],
    )
    path = tmp_path / "collide.json"
    path.write_text(serialize_graph(graph))
    ((slc, metrics),) = [(s, slice_objective(graph, s)) for s in SliceSearch(graph)]
    assert slc.members == ids
    assert len(metrics.coupling) == 12
    assert (metrics.coupling[("a", "b->c")], metrics.coupling[("a->b", "c")]) == (0.125, 0.25)
    (line,) = _slice_lines(capsys, path)
    assert line == _dumps(slice_doc_reference(slc, metrics))
    doc = json.loads(line)
    assert len(doc["coupling"]) == 11
    assert '"a->b->c":0.25' in line
    assert doc["mean_coupling"] == 0.21875  # 9 pairs of 1/4 and 3 of 1/8


# -- optimize ---------------------------------------------------------------------


def test_optimize_default_machine(capsys):
    rc, out, _ = run(capsys, "optimize", FIG, "--format", "machine")
    assert rc == EXIT_OK
    (doc,) = machine_docs(out)
    assert doc["type"] == "optimization"
    assert doc["candidates"] == 3
    assert doc["initial"] == 2
    assert doc["complete"] is True
    best = doc["best"]
    assert best["members"] == ["n_2", "n_3", "n_5"]
    assert best["z"] == pytest.approx(0.6)
    assert best["order"] == ["n_5", "n_3", "n_2"]
    assert best["makespan"] == 15.0
    assert best["order_cost"] == pytest.approx(4199 / 40500)
    assert best["schedule_method"] == "exhaustive"
    assert [s["members"] for s in doc["feasible"]] == [
        ["n_2", "n_3", "n_5"],
        ["n_1", "n_3", "n_7"],
    ]
    assert doc["feasible"][1]["z"] == pytest.approx(0.3)
    assert doc["pareto"] == [["n_1", "n_3", "n_7"], ["n_2", "n_3", "n_5"]]
    assert doc["infeasible"] == []


def test_optimize_text(capsys):
    rc, out, _ = run(capsys, "optimize", FIG, "--format", "text")
    assert rc == EXIT_OK
    assert "3 candidate slices, 2 in the initial set" in out
    assert "best: n_2,n_3,n_5  z=0.6000" in out
    assert "build order: n_5 -> n_3 -> n_2 (exhaustive)" in out
    assert "pareto front: n_1,n_3,n_7  n_2,n_3,n_5" in out


def test_optimize_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tf_min": 0.5, "tf": {"n_5": 0.25}, "f_min": 0.52}))
    rc, out, _ = run(capsys, "optimize", FIG, str(cfg), "--format", "machine")
    assert rc == EXIT_OK
    (doc,) = machine_docs(out)
    assert doc["best"]["members"] == ["n_1", "n_3", "n_7"]
    assert doc["best"]["z"] == pytest.approx(0.45)
    assert [s["members"] for s in doc["infeasible"]] == [["n_2", "n_3", "n_5"]]
    assert doc["infeasible"][0]["violated"] == ["tf"]
    assert doc["infeasible"][0]["z"] is None
    assert doc["pareto"] == [["n_1", "n_3", "n_7"]]


def test_optimize_config_env(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tf_min": 0.5, "tf": {"n_5": 0.25}, "f_min": 0.52}))
    monkeypatch.setenv("CAPSLICE_CONFIG", str(cfg))
    rc, out, _ = run(capsys, "optimize", FIG, "--format", "machine")
    assert rc == EXIT_OK
    (doc,) = machine_docs(out)
    assert doc["best"]["members"] == ["n_1", "n_3", "n_7"]

    # explicit positional path wins over the environment
    other = tmp_path / "none.json"
    other.write_text("{}")
    rc, out, _ = run(capsys, "optimize", FIG, str(other), "--format", "machine")
    assert rc == EXIT_OK
    (doc,) = machine_docs(out)
    assert doc["best"]["members"] == ["n_2", "n_3", "n_5"]


def test_optimize_lambda_override(capsys):
    rc, out, _ = run(capsys, "optimize", FIG, "--lambda", "0", "--format", "machine")
    assert rc == EXIT_OK
    (doc,) = machine_docs(out)
    assert doc["best"]["members"] == ["n_2", "n_3", "n_5"]
    assert doc["best"]["f"] == pytest.approx(38 / 63)


def test_optimize_no_feasible(tmp_path, capsys):
    cfg = tmp_path / "hard.json"
    cfg.write_text(json.dumps({"f_min": 0.9}))
    rc, out, _ = run(capsys, "optimize", FIG, str(cfg), "--format", "machine")
    assert rc == EXIT_OK
    (doc,) = machine_docs(out)
    assert doc["best"] is None
    assert doc["feasible"] == []
    assert doc["pareto"] == []
    assert {tuple(s["members"]) for s in doc["infeasible"]} == {
        ("n_1", "n_3", "n_7"),
        ("n_2", "n_3", "n_5"),
    }
    assert all(s["violated"] == ["f"] for s in doc["infeasible"])

    rc, out, _ = run(capsys, "optimize", FIG, str(cfg), "--format", "text")
    assert rc == EXIT_OK
    assert "no feasible slice under the given constraints" in out


def test_optimize_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"weights": "x"}))
    rc, _, err = run(capsys, "optimize", FIG, str(cfg))
    assert rc == EXIT_USAGE
    assert "weights" in err


def test_optimize_nonpositive_time_is_usage(tmp_path, capsys):
    # refused when the config is read, whether or not n_4 is in a candidate slice
    cfg = tmp_path / "times.json"
    for node in ("n_1", "n_4"):
        cfg.write_text(json.dumps({"times": {node: -1}}))
        rc, out, err = run(capsys, "optimize", FIG, str(cfg))
        assert rc == EXIT_USAGE and out == ""
        assert err == f"error: times value -1 for '{node}' must be positive\n"


def test_optimize_missing_config(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    rc, out, err = run(capsys, "optimize", FIG, str(missing))
    assert rc == EXIT_USAGE
    assert f"cannot read {missing}" in err
    assert "Traceback" not in err and out == ""


# -- simulate ---------------------------------------------------------------------

SCENARIOS = [
    {"kind": "modify_directive", "target": "d_9", "payload": {"relevance": 0.1}},
    {"kind": "delete_function_subtree", "target": "n_8"},
]


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(SCENARIOS))
    return str(path)


def test_simulate_machine(scenario_file, capsys, fig2):
    rc, out, _ = run(
        capsys, "simulate", FIG, scenario_file, "--slice", S1, "--slice", S2,
        "--format", "machine",
    )
    assert rc == EXIT_OK
    (doc,) = machine_docs(out)
    assert doc["type"] == "comparison"
    assert doc["threshold"] == 0.125
    assert doc["slices"] == [["n_1", "n_3", "n_7"], ["n_2", "n_3", "n_5"]]
    assert doc["matrix"] == [[5, 3], [2, 3]]
    assert doc["totals"] == [8, 5]
    assert doc["winners"] == [[1], [0, 1]]
    cell = doc["cells"][0][0]
    assert cell["directives"] == ["d_6", "d_7", "d_8", "d_9"]
    assert cell["capabilities"] == ["n_7"]
    assert cell["count"] == 5
    assert cell["evaluated_on"] == "base"

    # the matrix agrees with the library on the same inputs
    slices = [make_slice(fig2, s.split(",")) for s in (S1, S2)]
    comparison = compare_slices(fig2, slices, parse_scenarios(json.dumps(SCENARIOS)))
    expected = [[r.impact_count for r in row] for row in comparison.reports]
    assert doc["matrix"] == expected


def test_comparison_line_equals_json_dumps_of_the_reference(tmp_path, capsys, fig2):
    # simulate writes its comparison line directly; it must be the bytes
    # json.dumps gives for the reference document, on fig2 and on generated
    # graphs whose ids (new ones in payloads too) hold JSON escapes and
    # non-ASCII characters, with every scenario kind, at two thresholds, and
    # with no scenario at all
    graph_path, scenario_path = tmp_path / "graph.json", tmp_path / "scenarios.json"

    def check(graph, scenarios, members, threshold=None):
        graph_path.write_text(serialize_graph(graph))
        docs = [
            {"kind": sc.kind.value, "target": sc.target, "payload": sc.payload} for sc in scenarios
        ]
        scenario_path.write_text(json.dumps(docs, default=float))
        thr = Fraction(1, 8) if threshold is None else to_fraction(threshold)
        slices = [make_slice(graph, list(m)) for m in members]
        comparison = compare_slices(graph, slices, parse_scenarios(scenario_path.read_text()), thr)
        argv = ["simulate", str(graph_path), str(scenario_path), "--format", "machine"]
        argv += [arg for m in members for arg in ("--slice", ",".join(m))]
        argv += ["--threshold", threshold] if threshold else []
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (EXIT_OK, "")
        assert out == _dumps(comparison_doc_reference(comparison, thr)) + "\n"
        return comparison

    fig2_slices = [S1.split(","), S2.split(",")]
    for threshold in (None, "1"):
        check(fig2, parse_scenarios(json.dumps(SCENARIOS)), fig2_slices, threshold)
    empty = check(fig2, [], fig2_slices)
    assert empty.reports == ((), ()) and empty.winners == ()

    rng = random.Random(50)
    kinds, cells, on, escaped = set(), 0, set(), 0
    for i in range(40):
        base = random_fd_graph(rng, max_internal=7, max_directives=9)
        graph = relabeled(base, awkward_ids(rng, base.node_ids))
        found = [s.members for s in SliceSearch(graph, max_slices=6)]
        if not found:
            continue
        members = rng.sample(found, min(len(found), rng.randint(1, 3)))
        scenarios = []
        for kind in ScenarioKind:
            sc = random_scenario(rng, graph, kind)
            if sc.payload and "id" in sc.payload:
                sc.payload["id"] = f'new"\\\u00e9{i}'
            try:  # keep the scenarios every picked slice can be measured on
                compare_slices(graph, [make_slice(graph, list(m)) for m in members], [sc])
            except (ChangeError, MembershipError):
                continue
            scenarios.append(sc)
        comparison = check(graph, scenarios, members, rng.choice([None, "0.01"]))
        kinds.update(sc.kind for sc in scenarios)
        cells += sum(map(len, comparison.reports))
        on.update(r.evaluated_on for row in comparison.reports for r in row)
        escaped += any(not n.isascii() or '"' in n or "\\" in n for n in graph.node_ids)
        if i % 10 == 0:
            check(graph, [], members)
    assert kinds == set(ScenarioKind) and on == {"base", "changed"}
    assert (cells, escaped) == (238, 37)


def test_simulate_text(scenario_file, capsys):
    rc, out, _ = run(
        capsys, "simulate", FIG, scenario_file, "--slice", S1, "--slice", S2,
        "--format", "text",
    )
    assert rc == EXIT_OK
    assert "slice n_1,n_3,n_7  (total impact 8)" in out
    assert "modify_directive d_9: count=5" in out
    assert "least impacted by modify_directive d_9: n_2,n_3,n_5" in out
    assert "least impacted by delete_function_subtree n_8: n_1,n_3,n_7 n_2,n_3,n_5" in out


def test_simulate_threshold_flag(scenario_file, capsys):
    rc, out, _ = run(
        capsys, "simulate", FIG, scenario_file, "--slice", S1, "--threshold", "1",
        "--format", "machine",
    )
    assert rc == EXIT_OK
    (doc,) = machine_docs(out)
    assert doc["threshold"] == 1.0
    # at threshold 1 only the seeds survive for the modify scenario
    assert doc["matrix"][0][0] == 2


def test_simulate_bad_threshold(scenario_file, capsys):
    for value in ("0", "1.5"):
        rc, _, err = run(
            capsys, "simulate", FIG, scenario_file, "--slice", S1, "--threshold", value
        )
        assert rc == EXIT_USAGE
        assert "threshold" in err


def test_simulate_bad_threshold_without_scenarios(tmp_path, capsys):
    # with no cell to measure the threshold went unchecked and was printed
    path = tmp_path / "empty.json"
    path.write_text("[]")
    rc, out, err = run(
        capsys, "simulate", FIG, str(path), "--slice", S1, "--threshold", "5",
        "--format", "machine",
    )
    assert rc == EXIT_USAGE and out == ""
    assert err == "error: threshold 5 outside (0, 1]\n"


def test_simulate_bad_scenario_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"not": "a list"}))
    rc, _, err = run(capsys, "simulate", FIG, str(path), "--slice", S1)
    assert rc == EXIT_USAGE
    assert "JSON list" in err

    path.write_text(json.dumps([{"kind": "modify_relevance", "target": "d_9"}]))
    rc, _, err = run(capsys, "simulate", FIG, str(path), "--slice", S1)
    assert rc == EXIT_USAGE
    assert "unknown scenario kind" in err


def test_simulate_requires_slice(scenario_file, capsys):
    rc = main(["simulate", FIG, scenario_file])
    capsys.readouterr()
    assert rc == EXIT_USAGE


def test_simulate_impossible_change_is_domain(tmp_path, capsys):
    path = tmp_path / "cut.json"
    path.write_text(json.dumps([{"kind": "delete_function_subtree", "target": "m"}]))
    rc, _, err = run(capsys, "simulate", FIG, str(path), "--slice", S1)
    assert rc == EXIT_DOMAIN
    assert err.startswith("error:")


def test_simulate_bad_children_is_domain(tmp_path, capsys):
    # a malformed payload is an impossible change, not a traceback
    path = tmp_path / "adopt.json"
    payload = {"id": "n_10", "children": 5}
    path.write_text(json.dumps([{"kind": "add_function", "target": "n_7", "payload": payload}]))
    rc, out, err = run(capsys, "simulate", FIG, str(path), "--slice", S1)
    assert rc == EXIT_DOMAIN and out == ""
    assert err == "error: children must be a list of node ids\n"


@pytest.mark.parametrize(
    "entry, message",
    [
        (
            {"kind": "modify_directive", "target": "d_9", "payload": {"relevance": 2}},
            "relevance 2 on 'n_7' -> 'd_9' outside (0, 1]",
        ),
        (
            {"kind": "add_directive", "target": "n_7", "payload": {"id": "d_15", "relevance": 0}},
            "relevance 0 on 'n_7' -> 'd_15' outside (0, 1]",
        ),
        (
            {"kind": "add_function", "target": "n_7",
             "payload": {"id": "n_10", "children": ["d_8"], "label": ["x"]}},
            "label must be a string",
        ),
        (
            {"kind": "delete_directive", "target": "d_1", "payload": {"bogus": 1, "label": 5}},
            "unknown payload keys: bogus, label",
        ),
        (
            {"kind": "delete_function_subtree", "target": "n_8", "payload": {"id": "zzz"}},
            "unknown payload keys: id",
        ),
        (
            {"kind": "modify_directive", "target": "d_9", "payload": {"relevance": {}}},
            "modification must change a label or a relevance",
        ),
    ],
    ids=[
        "modify-relevance",
        "add-relevance",
        "add-function-label",
        "delete-directive-payload",
        "delete-subtree-payload",
        "modify-empty-relevance",
    ],
)
def test_simulate_bad_payload_names_the_scenario(tmp_path, capsys, entry, message):
    # an impossible change, reported in the scenario's terms: no entry of the
    # graph the edit rebuilds internally
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([entry]))
    rc, out, err = run(capsys, "simulate", FIG, str(path), "--slice", S1)
    assert rc == EXIT_DOMAIN and out == ""
    assert err == f"error: {message}\n"
    assert "edge entry" not in err


def test_exit_code_ignores_error_text(tmp_path, capsys):
    # the exit code follows the exception type, whatever the message says
    path = tmp_path / "named.json"
    path.write_text(json.dumps([{"kind": "delete_directive", "target": "threshold"}]))
    rc, out, err = run(capsys, "simulate", FIG, str(path), "--slice", S1)
    assert rc == EXIT_DOMAIN and out == ""
    assert err == "error: unknown directive 'threshold'\n"
    rc, out, err = run(capsys, "simulate", FIG, str(path), "--slice", S1, "--threshold", "5")
    assert rc == EXIT_USAGE and out == ""
    assert err == "error: threshold 5 outside (0, 1]\n"


# -- export -----------------------------------------------------------------------


def test_export_dot_text(capsys):
    rc, out, _ = run(capsys, "export", FIG, "--format", "text")
    assert rc == EXIT_OK
    assert out.startswith("digraph decomposition {")
    assert out.rstrip().endswith("}")
    assert out.count("->") == 27


def test_export_dot_machine(capsys):
    rc, out, _ = run(capsys, "export", FIG, "--format", "machine")
    assert rc == EXIT_OK
    (doc,) = machine_docs(out)
    assert doc["type"] == "dot"
    assert doc["text"].startswith("digraph decomposition {")


def test_export_dot_with_slice_annotations(capsys):
    rc, out, _ = run(capsys, "export", FIG, "--slice", S1, "--format", "text")
    assert rc == EXIT_OK
    assert out.count("fillcolor=lightblue") == 3
    assert 'xlabel="Ch=0.5250"' in out


def test_export_manifest(capsys):
    rc, out, _ = run(capsys, "export", FIG, "--manifest", "--slice", S1, "--format", "machine")
    assert rc == EXIT_OK
    (doc,) = machine_docs(out)
    assert [c["id"] for c in doc["capabilities"]] == ["n_1", "n_3", "n_7"]
    assert doc["order"] == ["n_7", "n_1", "n_3"]
    assert doc["directive_count"] == 14
    assert doc["aggregate"] == pytest.approx(6677 / 12000)

    rc, out, _ = run(capsys, "export", FIG, "--manifest", "--slice", S1, "--format", "text")
    assert rc == EXIT_OK
    pretty = json.loads(out)
    assert pretty["order"] == ["n_7", "n_1", "n_3"]


def test_export_manifest_needs_slice(capsys):
    rc, _, err = run(capsys, "export", FIG, "--manifest")
    assert rc == EXIT_USAGE
    assert "--slice" in err


def test_export_invalid_slice_is_domain(capsys):
    rc, _, err = run(capsys, "export", FIG, "--slice", "m")
    assert rc == EXIT_DOMAIN
    assert "MISSION_MEMBER" in err


# -- flags ------------------------------------------------------------------------

# the formerly global flags each subcommand reads: 14 of the 30 pairs
READS = {
    "validate": {"--format"},
    "metrics": {"--format"},
    "slices": {"--format", "--lambda", "--max-slices", "--time-budget"},
    "optimize": {"--format", "--lambda", "--max-slices", "--time-budget"},
    "simulate": {"--format", "--threshold"},
    "export": {"--format", "--lambda"},
}
FLAG_VALUES = {
    "--format": "machine",
    "--lambda": "0.5",
    "--max-slices": "3",
    "--time-budget": "60",
    "--threshold": "0.25",
}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("command", sorted(READS))
def test_flag_only_where_read(scenario_file, capsys, command, flag):
    # a flag the handler does not read is a usage error, never silently ignored
    operands = [scenario_file, "--slice", S1] if command == "simulate" else []
    rc, out, err = run(capsys, command, FIG, *operands, flag, FLAG_VALUES[flag])
    if flag in READS[command]:
        assert rc == EXIT_OK and out
    else:
        assert rc == EXIT_USAGE and out == ""
        assert f"unrecognized arguments: {flag} " in err


@pytest.mark.parametrize("command", ["metrics", "export"])
def test_single_slice_flag_given_twice(capsys, command):
    # metrics and export read one slice, so a second is refused, not dropped
    rc, out, err = run(capsys, command, FIG, "--slice", S1, "--slice", "bogus")
    assert rc == EXIT_USAGE and out == ""
    assert "--slice may be given only once" in err


# -- repeated calls ---------------------------------------------------------------


def test_main_repeated_calls_agree(tmp_path, capsys, monkeypatch):
    # the parser is built once per process and shared by every call, so no
    # call may see a flag, a default or an environment value of an earlier one
    assert _parsers() is _parsers()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tf_min": 0.5, "tf": {"n_5": 0.25}, "f_min": 0.52}))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SCENARIOS))
    steps = [
        (None, ["validate", FIG]),
        (None, ["metrics", FIG, "--slice", S1]),
        (None, ["metrics", FIG]),
        (None, ["slices", FIG, "--max-slices", "2", "--lambda", "0"]),
        (None, ["slices", FIG, "--max-slices", "1"]),
        (str(cfg), ["optimize", FIG]),
        (None, ["optimize", FIG]),
        (None, ["simulate", FIG, str(scen), "--slice", S1, "--slice", S2]),
        (None, ["simulate", FIG, str(scen), "--slice", S1]),
        (None, ["export", FIG, "--slice", S1, "--slice", S2]),
        (None, ["export", FIG, "--slice", S1]),
    ]

    def round_():
        results = []
        for config, argv in steps:
            if config is None:
                monkeypatch.delenv(CONFIG_ENV, raising=False)
            else:
                monkeypatch.setenv(CONFIG_ENV, config)
            results.append(run(capsys, *argv, "--format", "machine"))
        results.append(run(capsys, "--help"))
        return results

    first = round_()
    assert round_() == first

    codes = [rc for rc, _, _ in first]
    assert codes == [EXIT_OK] * 9 + [EXIT_USAGE, EXIT_OK, EXIT_OK]
    docs = [machine_docs(out) for _, out, _ in first[:-1]]
    assert docs[1][0]["slice"] == S1.split(",") and "slice" not in docs[2][0]
    assert len(docs[3]) == 3 and len(docs[4]) == 2  # two slices or one, and a summary
    assert docs[5][0]["best"]["members"] == S1.split(",")
    assert docs[6][0]["best"]["members"] == S2.split(",")
    assert len(docs[7][0]["matrix"]) == 2 and len(docs[8][0]["matrix"]) == 1
    assert first[9][1] == "" and "--slice may be given only once" in first[9][2]
    assert first[-1][1].startswith("usage: capslice")


# -- parsing and encoding -----------------------------------------------------------


def _parsed(parse, argv):
    """(vars of the namespace or None, SystemExit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            names, code = vars(parse(list(argv))), None
        except SystemExit as exc:
            names, code = None, exc.code
    return names, code, out.getvalue(), err.getvalue()


def test_parse_args_agrees_with_the_full_parser(tmp_path, monkeypatch):
    # a line whose first word is a subcommand skips the full parser unless its
    # subparser leaves arguments; the result, or the exit and its text, is the
    # full parser's either way
    parser = _parsers()[0]
    full = parser.parse_args
    reached = []
    monkeypatch.setattr(parser, "parse_args", lambda argv: reached.append(argv) or full(argv))
    golden = [
        [str(a) for a in argv] + ["--format", fmt]
        for _, cases in golden_inputs(tmp_path)
        for argv in cases.values()
        for fmt in GOLDEN_FORMATS
    ]
    commands = ("validate", "metrics", "slices", "optimize", "simulate", "export")
    falling_back = [
        ["slices", FIG, "--jobs", "2"],  # unknown flag after a subcommand
        ["validate", FIG, "extra"],
        ["optimize", FIG, "cfg.json", "extra"],
        ["validate", FIG, "--lambda", "1"],  # a flag validate does not read
        ["simulate", FIG, "s.json", "--slice", S1, "--", "--slice"],
    ]
    at_top = [
        ["--format", "machine", "validate", FIG],  # a flag before the subcommand
        ["-h"],
        ["--help"],
        ["frobnicate", FIG],
        [],
    ]
    direct = [
        *([c, flag] for c in commands for flag in ("-h", "--help")),
        ["simulate", FIG, "s.json"],  # without --slice
        ["metrics", FIG, "--slice", S1, "--slice", S2],
        ["validate", "--", FIG],
        ["optimize", FIG, "--", "cfg.json"],
        ["validate", FIG, "--form", "machine"],
        ["export", FIG, "--lambda", "x"],
    ]
    for argv in golden + falling_back + at_top + direct:
        reached.clear()
        got = _parsed(cli_module._parse_args, argv)
        assert got == _parsed(full, argv), argv
        assert reached == ([argv] if argv in falling_back + at_top else []), argv
    exits = [_parsed(cli_module._parse_args, argv)[1] for argv in falling_back + at_top + direct]
    assert exits == [2] * 5 + [2, 0, 0, 2, 2] + [0] * 12 + [2, 2, None, None, None, 2]
    assert len(golden) > 500


def _dumps_line(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_emit_prints_json_dumps(tmp_path, capsys, monkeypatch):
    # the shared encoder skips the circular-reference walk; the bytes stay
    # those of json.dumps.  simulate writes its comparison line directly
    # (test_comparison_line_equals_json_dumps_of_the_reference)
    emit, emitted = cli_module._emit, []

    def spy(doc):
        text = io.StringIO()
        with redirect_stdout(text):
            emit(doc)
        emitted.append((doc, text.getvalue()))

    monkeypatch.setattr(cli_module, "_emit", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tf_min": 0.5, "tf": {"n_5": 0.25}}))
    for argv in [
        ["validate", FIG],
        ["metrics", FIG, "--slice", S1, "--pairs", "n_1,n_3"],
        ["slices", FIG],
        ["optimize", FIG, str(cfg)],
        ["export", FIG, "--slice", S1],
        ["export", FIG, "--manifest", "--slice", S1],
    ]:
        assert run(capsys, *argv, "--format", "machine")[0] == EXIT_OK
    kinds = [doc.get("type", "manifest") for doc, _ in emitted]
    assert kinds == ["validation", "metrics", "summary", "optimization", "dot", "manifest"]
    for doc, text in emitted:
        assert text == _dumps_line(doc)
    monkeypatch.undo()
    doc = {
        "é": ["Ω", "\U0001d11e", "\"\\\n\t", ""],
        "big": 2**80,
        "small": 1e-07,
        "neg": -0.0,
        "empty": [{}, [], [[]], {"": {}}],
        "nested": {"b": [1, {"a": [None, True, False]}], "a": 1.5},
    }
    cli_module._emit(doc)
    assert capsys.readouterr().out == _dumps_line(doc)


# -- determinism ------------------------------------------------------------------


def pipeline(tmp_path):
    """One full machine-mode run of every subcommand, concatenated."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tf_min": 0.5, "tf": {"n_5": 0.25}}))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SCENARIOS))
    commands = [
        ["validate", FIG],
        ["metrics", FIG, "--pairs", "n_1,n_9"],
        ["slices", FIG],
        ["optimize", FIG, str(cfg)],
        ["simulate", FIG, str(scen), "--slice", S1, "--slice", S2],
        ["export", FIG, "--manifest", "--slice", S1],
    ]
    chunks = []
    for cmd in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "capslice.cli", *cmd, "--format", "machine"],
            capture_output=True,
            check=True,
        )
        chunks.append(proc.stdout)
    return b"".join(chunks)


def test_machine_output_is_byte_identical(tmp_path):
    assert pipeline(tmp_path) == pipeline(tmp_path)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "capslice.cli", "validate", FIG],
        capture_output=True,
        check=True,
    )
    assert b"ok" in proc.stdout
