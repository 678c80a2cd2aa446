"""Rewrite tests/golden_lib.json from the current code's library values.

    python3 tests/make_golden_lib.py

Run it only for a change meant to alter a value the library returns, and
say in CHANGES.md which values moved and why.  Not collected by pytest.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from test_golden_lib import GOLDEN, fingerprints  # noqa: E402


def main() -> None:
    prints = fingerprints()
    GOLDEN.write_text(json.dumps(prints, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(prints)} fingerprints to {GOLDEN}")


if __name__ == "__main__":
    main()
