"""The benchmark's tracer (``perfbench/trace_op.py``) wraps detector,
report, law and suite functions by name and reads their arguments and
results.  A traced call must behave exactly as an untraced one, and its
spans must still carry the counters the benchmark reads."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from tests.conftest import CORPUS_DIR

ROOT = CORPUS_DIR.parent
PROG1 = str(CORPUS_DIR / "prog1_running_example" / "program.rlp")


def _run(*argv: str) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, check=False, timeout=120,
    )
    return done.returncode, done.stdout


@pytest.mark.parametrize("argv", [
    ("analyze", PROG1, "--predicate", "generic", "--format", "json"),
    ("analyze", PROG1),
    ("ablate", PROG1),
], ids=["analyze-generic-json", "analyze", "ablate"])
def test_traced_call_matches_untraced(tmp_path, argv):
    spans_path = tmp_path / "spans.json"
    traced = _run(str(ROOT / "perfbench" / "trace_op.py"), str(spans_path), "op", "--", *argv)
    assert traced == _run("-m", "racedigest.cli", *argv)
    assert traced[1]
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    detects = [s for s in spans if s["name"] == "detector.detect"]
    assert detects
    if "generic" in argv:
        (span,) = detects
        assert span["counters"]["generic"] == 1


LAW_SPANS = ("digest.admissibility", "digest.stability", "digest.commutativity", "conformance.laws")


def test_traced_conform_matches_untraced(tmp_path):
    corpus = tmp_path / "corpus"
    for name in ("once_after_completion", "prog1_running_example", "two_children_race"):
        shutil.copytree(CORPUS_DIR / name, corpus / name)
    spans_path = tmp_path / "spans.json"
    argv = ("conform", str(corpus))
    traced = _run(str(ROOT / "perfbench" / "trace_op.py"), str(spans_path), "op", "--", *argv)
    assert traced == _run("-m", "racedigest.cli", *argv)
    assert traced[0] == 0 and "laws:" in traced[1]
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    for name in LAW_SPANS:
        found = [s for s in spans if s["name"] == name]
        assert found, name
        assert all(s["counters"]["checks"] > 0 for s in found), name
