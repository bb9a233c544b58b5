"""Record the sha256 of the analyze-locked reports for a range of seeds.

    PYTHONPATH=src python3 perfbench/record_golden.py FIRST LAST

Runs ``racedigest.cli.main`` in-process on the generated locked programs of
seeds FIRST..LAST and merges the stdout hashes into ``golden.json``.  The
benchmark compares every CLI run of a recorded seed against them, so a
change to the report bytes shows up as a failed operation.  Re-record only
when a report format change is intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import racedigest.cli
from gen import locked_program
from run import LOCKED_SIZE

HERE = Path(__file__).resolve().parent

COMMANDS = {
    "analyze": ["analyze", "{path}", "--format", "json"],
    "analyze_generic": ["analyze", "{path}", "--predicate", "generic", "--format", "json"],
    "ablate": ["ablate", "{path}", "--format", "json"],
}


def record(seeds) -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "locked.rlp"
        for seed in seeds:
            path.write_text(locked_program(*LOCKED_SIZE, seed), encoding="utf-8")
            key = "locked/{}/{}/{}/seed{}".format(*LOCKED_SIZE, seed)
            for op, template in COMMANDS.items():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    racedigest.cli.main([a.format(path=path) for a in template])
                out[f"{key}/{op}"] = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    return out


def main(argv: list[str]) -> int:
    first, last = map(int, argv)
    golden_path = HERE / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    golden.update(record(range(first, last + 1)))
    golden_path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
