"""The package and the CLI load optimizer and changesim only when used.

`import capslice` binds no submodule, and `capslice.cli` imports
`optimizer` only for optimize and export --manifest, and `changesim` only
for simulate.  Which modules a run loads is read off sys.modules in a fresh
interpreter, one per case, since this process has loaded them all.  The
names stay reachable: every public name of the package resolves on first
access.  The CLI reaches the two modules' library calls through two module
functions, `cli.optimize` and `cli.compare_slices`, which import their
module when called and which a caller may patch, as the benchmark's tracer
does; each handler imports the other names it needs from the two modules
itself.
"""

import importlib
import json
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO

import pytest

import capslice
from capslice import cli
from capslice.fixtures import fig2_path

FIG = str(fig2_path())
S1 = "n_1,n_3,n_7"
SCENARIOS = [
    {"kind": "modify_directive", "target": "d_9", "payload": {"relevance": 0.1}},
    {"kind": "delete_function_subtree", "target": "n_8"},
]
DEFERRED = ("capslice.optimizer", "capslice.changesim")

# every name capslice/__init__.py bound when it imported all its modules
PACKAGE_NAMES = {
    "changesim": (
        "ChangeError", "ChangeScenario", "Comparison", "ImpactReport", "ScenarioKind",
        "apply_change", "compare_slices", "impact_set", "parse_scenarios",
    ),
    "graph": (
        "EdgeKind", "FDGraph", "GraphError", "GraphParseError", "IMPACT_RELEVANCE", "Node",
        "NodeKind", "UnknownNodeError", "ValidationReport", "Violation", "build_graph",
        "descendants", "distances_from", "export_dot", "leaves_of", "parse_graph",
        "serialize_graph", "undirected_distance", "validate",
    ),
    "metrics": (
        "CohesionUndefinedError", "MembershipError", "PairCoupling", "UncoveredDirectiveError",
        "UnresolvableSharingError", "capability_coupling", "cohesion", "cohesion_map",
        "coupling_matrix", "resolve_membership", "size_of",
    ),
    "optimizer": (
        "OptimizationConfig", "OptimizationResult", "ScheduleModel", "SliceScore",
        "TechFeasibility", "export_capabilities", "objective_z", "optimize", "pareto_front",
        "schedule_slice", "slice_feasibility", "validate_manifest",
    ),
    "slicing": (
        "Enumeration", "InvalidSliceError", "Ranking", "Slice", "SliceCheck", "SliceMetrics",
        "SliceSearch", "enumerate_slices", "is_valid_slice", "make_slice", "rank_slices",
        "score_slices", "slice_objective",
    ),
}

# the names the CLI imported from the two modules when it loaded them eagerly;
# of these it keeps only optimize and compare_slices
CLI_NAMES = {
    "optimizer": (
        "ConfigError", "OptimizationConfig", "export_capabilities", "optimize",
        "validate_manifest",
    ),
    "changesim": (
        "DEFAULT_THRESHOLD", "ChangeError", "ScenarioParseError", "compare_slices",
        "parse_scenarios",
    ),
}

# a fresh interpreter's prelude: run(argv) calls cli.main with stdout
# captured, loaded() lists which of the deferred modules are in sys.modules
PRELUDE = f"""
import io, json, sys
from contextlib import redirect_stdout

def loaded():
    return [m for m in {DEFERRED!r} if m in sys.modules]

def run(argv):
    from capslice import cli
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()
"""


def fresh(code: str):
    """What a fresh interpreter prints, as JSON, after PRELUDE and code."""
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_package_or_the_cli_loads_neither():
    got = fresh(
        "import capslice\n"
        "package = loaded()\n"
        "import capslice.cli\n"
        "print(json.dumps([package, loaded()]))\n"
    )
    assert got == [[], []]


def test_a_submodule_is_an_attribute_without_an_import():
    got = fresh(
        "import capslice\n"
        "g = capslice.graph.parse_graph(open(%r).read())\n"
        "print(json.dumps([capslice.graph.__name__, g.n_nodes, loaded()]))\n" % FIG
    )
    assert got == ["capslice.graph", 24, []]


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(SCENARIOS))
    return str(path)


def _commands(scenario_file):
    # each run of commands in one fresh interpreter, with the deferred
    # modules loaded after each command
    return [
        (
            [
                ["validate", FIG],
                ["metrics", FIG, "--pairs", "n_1,n_3", "--slice", S1],
                ["slices", FIG],
                ["export", FIG, "--slice", S1],
            ],
            [[], [], [], []],
        ),
        ([["optimize", FIG]], [["capslice.optimizer"]]),
        ([["export", FIG, "--manifest", "--slice", S1]], [["capslice.optimizer"]]),
        (
            [["simulate", FIG, scenario_file, "--slice", S1, "--slice", "n_2,n_3,n_5"]],
            [["capslice.changesim"]],
        ),
    ]


def test_each_subcommand_loads_only_what_it_uses(scenario_file, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    for commands, expected in _commands(scenario_file):
        got = fresh(
            f"after = []\n"
            f"for argv in {commands!r}:\n"
            f"    assert run(argv + ['--format', 'machine'])[0] == 0, argv\n"
            f"    after.append(loaded())\n"
            f"print(json.dumps(after))\n"
        )
        assert got == expected, commands


def test_every_package_name_resolves_lists_and_star_imports():
    names = {name for group in PACKAGE_NAMES.values() for name in group}
    assert sorted(capslice.__all__) == sorted(names)
    listed = dir(capslice)
    star: dict = {}
    exec("from capslice import *", star)
    assert set(star) - {"__builtins__"} == names
    for module, group in PACKAGE_NAMES.items():
        source = importlib.import_module(f"capslice.{module}")
        for name in group:
            # called directly, so the lookup runs even once the name is bound
            assert capslice.__getattr__(name) is getattr(source, name), name
            assert getattr(capslice, name) is star[name] is getattr(source, name), name
            assert name in listed, name
    assert capslice.__getattr__("graph") is importlib.import_module("capslice.graph")
    assert "__version__" in listed and capslice.__version__ == "0.1.0"


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        capslice.nonesuch
    with pytest.raises(ImportError, match="nonesuch"):
        exec("from capslice import nonesuch", {})
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        cli.nonesuch


def test_cli_reaches_optimize_and_compare_slices_through_two_functions():
    # looking either name up loads neither module; each returns what its
    # library function returns on the same arguments, positional or named;
    # no other name the CLI once took from the two modules is a cli attribute
    others = sorted(
        name for group in CLI_NAMES.values() for name in group
        if name not in ("optimize", "compare_slices")
    )
    got = fresh(
        f"import capslice.cli as cli\n"
        f"found = [hasattr(cli, 'optimize'), hasattr(cli, 'compare_slices')]\n"
        f"found.append([name for name in {others!r} if hasattr(cli, name)])\n"
        f"found.append(loaded())\n"
        f"from fractions import Fraction\n"
        f"from capslice import changesim, optimizer\n"
        f"from capslice.graph import parse_graph\n"
        f"from capslice.slicing import make_slice\n"
        f"g = parse_graph(open({FIG!r}).read())\n"
        f"slices = [make_slice(g, s.split(',')) for s in ({S1!r}, 'n_2,n_3,n_5')]\n"
        f"config = optimizer.OptimizationConfig(lam=Fraction(1, 2))\n"
        f"result = cli.optimize(g, slices, config=config)\n"
        f"found.append(result == optimizer.optimize(g, slices, config))\n"
        f"found.append(list(result.best.slice.members))\n"
        f"scenarios = changesim.parse_scenarios({json.dumps(SCENARIOS)!r})\n"
        f"quarter = Fraction(1, 4)\n"
        f"comparison = cli.compare_slices(g, slices, scenarios, threshold=quarter)\n"
        f"found.append(comparison == changesim.compare_slices(g, slices, scenarios, quarter))\n"
        f"found.append(list(comparison.totals))\n"
        f"print(json.dumps(found))\n"
    )
    assert len(others) == 8
    has_optimize, has_compare, listed, before, same_result, best, same_comparison, totals = got
    assert has_optimize and has_compare and listed == [] and before == []
    assert same_result and best
    assert same_comparison and len(totals) == 2 and any(totals)


# -- the benchmark's tracer ------------------------------------------------------

# bench/worker.py's install_tracing, restated: wrap each library name the
# CLI module has, patch it in, and count the calls per name
TRACED = (
    "parse_graph", "validate", "slice_objective", "score_slices", "rank_slices",
    "make_slice", "optimize", "compare_slices",
)
TRACER = f"""
from collections import Counter
import capslice.cli as cli

calls = Counter()
has = {{name: hasattr(cli, name) for name in {TRACED!r}}}

def wrap(name, fn):
    def traced(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return traced

originals = {{name: getattr(cli, name) for name in has if has[name]}}
for name, fn in originals.items():
    setattr(cli, name, wrap(name, fn))
patched = []
for argv in ARGVS:
    calls.clear()
    patched.append((run(argv), dict(calls)))
for name, fn in originals.items():
    setattr(cli, name, fn)
restored = all(getattr(cli, name) is fn for name, fn in originals.items())
plain = [run(argv) for argv in ARGVS]
print(json.dumps({{"has": has, "patched": patched, "plain": plain, "restored": restored}}))
"""


def test_tracer_wraps_optimize_and_compare_slices(scenario_file, monkeypatch):
    # patched before any handler has run: each handler calls the wrapper,
    # which calls the library function
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    argvs = [
        ["optimize", FIG, "--format", "machine"],
        ["simulate", FIG, scenario_file, "--slice", S1, "--format", "machine"],
    ]
    got = fresh(f"ARGVS = {argvs!r}\n" + TRACER)
    assert got["has"] == dict.fromkeys(TRACED, True)
    (opt_run, opt_calls), (sim_run, sim_calls) = got["patched"]
    assert opt_calls["optimize"] == 1 and "compare_slices" not in opt_calls
    assert sim_calls["compare_slices"] == 1 and "optimize" not in sim_calls
    assert [opt_run, sim_run] == got["plain"]
    assert opt_run[0] == sim_run[0] == 0 and opt_run[1] and sim_run[1]
    assert got["restored"]


def test_a_patched_name_survives_its_handler(scenario_file, monkeypatch):
    # the same in this process, where the handlers have already imported
    # the two modules
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    argv = ["simulate", FIG, scenario_file, "--slice", S1, "--format", "machine"]
    original = cli.compare_slices
    calls = []

    def traced(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    plain = StringIO()
    with redirect_stdout(plain):
        assert cli.main(argv) == 0
    monkeypatch.setattr(cli, "compare_slices", traced)
    patched = StringIO()
    with redirect_stdout(patched):
        assert cli.main(argv) == 0
    assert len(calls) == 1 and cli.compare_slices is traced
    assert patched.getvalue() == plain.getvalue()
