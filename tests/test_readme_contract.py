"""The README's contracts checked against the code: its Violation codes
table names exactly the codes the package emits, each subcommand takes
exactly the flags the README gives it, each documented exit code is
returned, each module.name it cites exists, and its table of library
calls on an invalid graph names real functions and real codes."""

import argparse
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import capslice
from capslice import cli
from capslice.fixtures import fig2_path
from capslice.graph import build_graph, serialize_graph

ROOT = Path(__file__).resolve().parent.parent


def _emitted_codes() -> dict[str, list[str]]:
    # every Violation("CODE", ...) in the package, with where it is built
    found: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "capslice").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            first = node.args[0]
            if name == "Violation" and isinstance(first, ast.Constant):
                found.setdefault(first.value, []).append(f"{path.name}:{node.lineno}")
    return found


def _documented_codes() -> list[str]:
    # the first column of the README's Violation codes table
    text = (ROOT / "README.md").read_text()
    table = text[text.index("Violation codes."):]
    table = table[: table.index("\n\n", table.index("| code |"))]
    return re.findall(r"^\| `([A-Z_]+)` \|", table, flags=re.MULTILINE)


def test_every_violation_code_is_documented():
    emitted = _emitted_codes()
    documented = _documented_codes()
    assert len(documented) == len(set(documented)), documented
    assert len(emitted) >= 14
    missing = {code: where for code, where in emitted.items() if code not in documented}
    assert missing == {}, f"codes the README's Violation codes table lacks: {missing}"
    assert sorted(documented) == sorted(emitted), "the table names a code nothing emits"


def _section(text: str, start: str) -> str:
    # what follows start, up to the next blank line
    begin = text.index(start) + len(start)
    return text[begin : text.index("\n\n", begin)]


def _documented_flags() -> dict[str, set[str]]:
    # each subcommand's synopsis, plus the "Flags, each only on the
    # subcommands that read it" bullets that name it
    text = (ROOT / "README.md").read_text()
    synopses = text[text.index("Subcommands:") : text.index("Flags, each only on")]
    flags = {
        synopsis.split()[0]: set(re.findall(r"--[a-z-]+", synopsis))
        for synopsis in re.findall(r"^- `([a-z][^`]*)` -\s", synopses, flags=re.MULTILINE)
    }
    bullets = _section(text, "Flags, each only on the subcommands that read it:\n\n")
    for bullet in re.split(r"^- ", bullets, flags=re.MULTILINE)[1:]:
        named, _, readers = bullet.partition(" on ")
        readers = readers.split(":")[0]
        if readers.startswith("every subcommand"):
            commands = list(flags)
        else:
            commands = re.findall(r"`([a-z]+)`", readers)
        for command in commands:
            flags[command] |= set(re.findall(r"`(--[a-z-]+)", named))
    return flags


def _parser_flags() -> dict[str, set[str]]:
    (subparsers,) = [
        a for a in cli._parsers()[0]._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        command: {
            flag
            for action in sub._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        for command, sub in subparsers.choices.items()
    }


def test_every_flag_is_documented_on_its_subcommands():
    documented = _documented_flags()
    assert len(documented) == 6 and "--format" in documented["validate"], documented
    assert _parser_flags() == documented


def test_each_documented_exit_code_is_returned(tmp_path, capsys):
    text = (ROOT / "README.md").read_text()
    documented = {int(code) for code in re.findall(r"`(\d)` ", _section(text, "Exit codes:"))}
    broken = tmp_path / "broken.json"  # f has no children
    broken.write_text(
        serialize_graph(build_graph([("m", "mission"), ("f", "function")], [("m", "f")]))
    )
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{")
    graphs = {0: fig2_path(), 1: broken, 2: garbled}
    assert set(graphs) == documented
    for code, path in graphs.items():
        assert cli.main(["validate", str(path)]) == code, code
    capsys.readouterr()


def _named_in_modules() -> list[tuple[str, str]]:
    # every backticked module.name, or a call of one, whose module is one
    # of the package's; a file name such as graph.py names nothing in it
    package = ROOT / "src" / "capslice"
    modules = {m.name for m in pkgutil.iter_modules(capslice.__path__)}
    text = (ROOT / "README.md").read_text()
    return [
        (module, name)
        for module, name in re.findall(r"`(?:capslice\.)?([a-z_]+)\.(\w+)[`(]", text)
        if module in modules and not (package / f"{module}.{name}").is_file()
    ]


def test_every_named_function_exists():
    named = _named_in_modules()
    assert len(named) >= 12 and ("graph", "directive_weights") in named, named
    missing = [
        f"{module}.{name}"
        for module, name in named
        if not hasattr(importlib.import_module(f"capslice.{module}"), name)
    ]
    assert missing == [], f"names the README cites that the package lacks: {missing}"


def test_invalid_graph_table_names_real_functions_and_codes():
    text = (ROOT / "README.md").read_text()
    table = _section(text, "| function | tolerates | raises otherwise |\n")
    rows = re.findall(r"^\| `([a-z_]+)\.(\w+)` \|(.*)$", table, flags=re.MULTILINE)
    named = [f"{module}.{name}" for module, name, _ in rows]
    assert len(table.splitlines()) == len(rows) + 1, "a row names no module.function"
    assert sorted(named) == sorted(
        [
            "graph.validate",
            "metrics.cohesion",
            "metrics.size_of",
            "metrics.coupling_matrix",
            "slicing.enumerate_slices",
            "slicing.is_valid_slice",
            "metrics.resolve_membership",
            "optimizer.schedule_slice",
            "changesim.compare_slices",
            "optimizer.export_capabilities",
        ]
    ), named
    for module, name, _ in rows:
        assert callable(getattr(importlib.import_module(f"capslice.{module}"), name, None)), name
    codes = set(_documented_codes())
    cited = {code for _, _, cells in rows for code in re.findall(r"`([A-Z_]{4,})`", cells)}
    assert cited and cited <= codes, cited - codes
