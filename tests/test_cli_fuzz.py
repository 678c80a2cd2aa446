"""Property: mutated graph, scenario and config files never make the CLI raise.

Every call goes through ``capslice.cli.main`` in this process, so the test
also runs one parser, built once, through a few hundred command lines.  Each
command line runs in both output formats, which must agree on the exit code
and on stderr, except where machine output stops at a value too large for a
double: text output renders any magnitude, so there the text run succeeds.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from capslice.cli import EXIT_USAGE, main  # noqa: E402
from capslice.fixtures import fig2_text  # noqa: E402

FIG2 = json.loads(fig2_text())
IDS = sorted(n["id"] for n in FIG2["nodes"]) + ["d_15", "n_10", "ghost"]
WORDS = ["mission", "function", "directive", "critical", "negligible", "refinement"]
KINDS = [
    "modify_directive", "delete_directive", "add_directive", "delete_function_subtree",
    "add_function",
]
DROP = object()  # a mutation that removes the key

leaves = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats()
    | st.sampled_from(IDS + WORDS)
    | st.text(max_size=4)
)
values = st.recursive(
    leaves,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(IDS), inner, max_size=2)
    ),
    max_leaves=4,
)
graph_edits = st.lists(
    st.tuples(
        st.sampled_from(["nodes", "edges"]),
        st.integers(0, len(FIG2["edges"]) - 1),
        st.sampled_from(["id", "kind", "label", "from", "to", "relevance"]),
        st.just(DROP) | values,
    ),
    max_size=2,
)
payloads = st.fixed_dictionaries(
    {},
    optional={
        "id": st.sampled_from(IDS) | values,
        "label": st.text(max_size=3) | values,
        "relevance": st.sampled_from([0, 0.5, 1, 2, "critical"]) | values,
        "children": st.lists(st.sampled_from(IDS), max_size=3) | values,
    },
)
scenarios = st.lists(
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(KINDS + ["bogus", 5]),
            "target": st.sampled_from(IDS + [None, ["n_7"]]),
        },
        optional={"payload": payloads | values},
    ),
    max_size=3,
)
plain_numbers = st.sampled_from([0, 0.25, 0.5, 1, 2, -1, "1/0", "2/4", "1e400"])
numbers = plain_numbers | values
FUNCTIONS = sorted(n["id"] for n in FIG2["nodes"] if n["kind"] == "function")
configs = (
    # well formed but for the numbers, so the numbers are what gets read
    st.fixed_dictionaries(
        {"lambda": plain_numbers},
        optional={
            "f_min": plain_numbers,
            "times": st.dictionaries(st.sampled_from(FUNCTIONS), plain_numbers, max_size=3),
        },
    )
    | st.fixed_dictionaries(
        {},
        optional={
            "tf_min": numbers,
            "sched_max": numbers,
            "f_min": numbers,
            "lambda": numbers,
            "weights": st.dictionaries(st.sampled_from(["f", "tf", "sched"]), numbers) | values,
            "tf": st.dictionaries(st.sampled_from(IDS + ["default"]), numbers) | values,
            "times": st.dictionaries(st.sampled_from(IDS), numbers) | values,
        },
    )
    | values
)
commands = st.sampled_from(
    [
        ["validate", "GRAPH"],
        ["metrics", "GRAPH", "--slice", "n_1,n_3,n_7"],
        # twice as likely: it is the one that applies the scenarios
        ["simulate", "GRAPH", "SCENARIOS", "--slice", "n_1,n_3,n_7", "--slice", "n_2,n_3,n_5"],
        ["simulate", "GRAPH", "SCENARIOS", "--slice", "n_2,n_3,n_5"],
        ["export", "GRAPH", "--manifest", "--slice", "n_1,n_3,n_7"],
        ["optimize", "GRAPH", "CONFIG"],
        # twice, on the unedited graph: an edited one usually fails before
        # the config's numbers are read
        ["optimize", "FIG2", "CONFIG"],
        ["optimize", "FIG2", "CONFIG"],
    ]
)
TOO_LARGE = "error: a value is too large for JSON output"


def mutated_graph(edits) -> dict:
    doc = json.loads(fig2_text())
    for section, index, key, value in edits:
        entry = doc[section][index % len(doc[section])]
        if value is DROP:
            entry.pop(key, None)
        else:
            entry[key] = value
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def config_example(config):
    """The config on the unedited graph, whatever the derandomized draw reaches."""
    command = ["optimize", "FIG2", "CONFIG"]
    return example(command=command, edits=[], scenario_list=[], config=config)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(command=commands, edits=graph_edits, scenario_list=scenarios, config=configs)
# a zero denominator exits 2; a value too large for a double stops machine output
@config_example({"lambda": "1/0"})
@config_example({"lambda": "1e400"})
@config_example({"lambda": 1, "times": {"n_1": "1/0"}})
@config_example({"lambda": 1, "times": {"n_1": "1e400"}})
def test_cli_never_raises_on_mutated_input(workdir, command, edits, scenario_list, config):
    files = {
        "GRAPH": mutated_graph(edits),
        "FIG2": FIG2,
        "SCENARIOS": scenario_list,
        "CONFIG": config,
    }
    for name, doc in files.items():
        (workdir / name).write_text(json.dumps(doc))
    argv = [str(workdir / a) if a in files else a for a in command]
    runs = []
    for fmt in ("machine", "text"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv + ["--format", fmt])
        assert rc in (0, 1, 2), err.getvalue()
        if rc == EXIT_USAGE:
            assert out.getvalue() == ""
        runs.append((rc, err.getvalue()))
    if runs[0][1].startswith(TOO_LARGE):
        assert runs == [(EXIT_USAGE, runs[0][1]), (0, "")]
    else:
        assert runs[0] == runs[1]
