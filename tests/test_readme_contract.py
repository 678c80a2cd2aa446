"""The README's contracts checked against the code: its Violation codes
table names exactly the codes the package emits."""

import ast
import re
from pathlib import Path

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
