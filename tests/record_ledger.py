"""Re-record ``tests/ledger.json`` and print the key of every command whose
hash changed (or that was added or dropped), one a line.

Run from anywhere:  python tests/record_ledger.py

A change that moves an entry names the printed keys in CHANGES.md and
says why their output changed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests import ledger  # noqa: E402


def main() -> None:
    recorded = ledger.load() if ledger.LEDGER.exists() else {}
    with tempfile.TemporaryDirectory() as workdir:
        current = ledger.record(Path(workdir))
    for key in ledger.changed(recorded, current):
        print(key)
    ledger.LEDGER.write_text(json.dumps(current, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
