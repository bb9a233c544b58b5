"""The test settings and the language floor: a failing property test is
reported by name under the project's pytest settings, and every Python
file parses with the oldest grammar ``requires-python`` admits."""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the oldest Python the project supports, as ``requires-python`` says
FLOOR = (3, 10)
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))

PLANTED = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
"""


def test_a_failing_property_test_is_reported(tmp_path):
    # with every warning an error, reporting a failed @given test once
    # loaded a module whose deprecation warning stopped the whole run
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_planted.py").write_text(PLANTED, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-rf", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1, out
    assert "FAILED test_planted.py::test_fails" in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out


def test_every_source_parses_with_the_oldest_supported_grammar():
    assert ROOT / "perfbench" / "run.py" in SOURCES and Path(__file__).resolve() in SOURCES
    failures = []
    for path in SOURCES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []
