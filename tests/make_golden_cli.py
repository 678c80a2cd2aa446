"""Rewrite tests/golden_cli.json from the current code's CLI output.

    python3 tests/make_golden_cli.py

Run it only for a change meant to alter CLI output, and say in CHANGES.md
which outputs moved and why.  Not collected by pytest.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from test_golden_cli import GOLDEN, fingerprints  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        prints = fingerprints(Path(tmp))
    GOLDEN.write_text(json.dumps(prints, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(prints)} fingerprints to {GOLDEN}")


if __name__ == "__main__":
    main()
