"""The README's contracts checked against the code: its Violation codes
table names exactly the codes the package emits, each subcommand takes
exactly the flags the README gives it, and each documented exit code is
returned."""

import argparse
import ast
import re
from pathlib import Path

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
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
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
