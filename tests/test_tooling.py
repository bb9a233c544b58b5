"""The test settings, the language floor and the benchmark's reads: a
failing property test is reported by name under the project's pytest
settings, every Python file parses with the oldest grammar
``requires-python`` admits, and every name the benchmark under
``perfbench/`` reads of ``racedigest`` resolves, though the tests never
import the benchmark."""

from __future__ import annotations

import ast
import importlib
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


def _benchmark_reads(source: str) -> list[tuple[str, tuple[str, ...]]]:
    """What a benchmark file with text ``source`` reads of ``racedigest``,
    as (module, attribute path) pairs: each ``import racedigest.X`` and
    ``from racedigest.X import Y``, function-local ones too, and each
    entry of ``INSTRUMENTED`` and ``REPORT_METHODS``."""
    tree = ast.parse(source)
    reads = []
    bound = {}  # a name a from-import binds -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            reads += [(a.name, ()) for a in node.names if a.name.split(".")[0] == "racedigest"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "racedigest":
            for a in node.names:
                reads.append((node.module, (a.name,)))
                bound[a.asname or a.name] = node.module, a.name
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("INSTRUMENTED", "REPORT_METHODS")):
            continue
        for entry in node.value.elts:
            owner, attr = entry.elts[:2]
            if isinstance(owner, ast.Name):  # a class a from-import binds
                module, name = bound[owner.id]
                reads.append((module, (name, attr.value)))
            else:  # a module, racedigest.X
                reads.append((ast.unparse(owner), (attr.value,)))
    return reads


def _unresolved(reads) -> list[str]:
    """The dotted name of each read that does not resolve."""
    out = []
    for module, attrs in reads:
        try:
            obj = importlib.import_module(module)
            for attr in attrs:
                obj = getattr(obj, attr)
        except (ImportError, AttributeError):
            out.append(".".join((module, *attrs)))
    return out


def test_every_name_the_benchmark_reads_resolves():
    # the tests never import perfbench/, so a name the benchmark reads and
    # a refactor drops would otherwise fail only when the benchmark runs
    reads = [read for path in sorted((ROOT / "perfbench").glob("*.py"))
             for read in _benchmark_reads(path.read_text(encoding="utf-8"))]
    for read in (("racedigest.digest", ("ProductDigest",)),
                 ("racedigest.digest", ("check_mhp_commutativity",)),
                 ("racedigest.detector", ("RaceReport", "to_text")),
                 ("racedigest.cli", ())):
        assert read in reads
    assert _unresolved(reads) == []


PLANTED_BENCHMARK = """\
import racedigest.digest
from racedigest.detector import RaceReport


def setup():
    from racedigest.digest import NoSuchDigest


INSTRUMENTED = [(racedigest.digest, "no_such_law", "digest.none", None)]
REPORT_METHODS = [(RaceReport, "to_nothing")]
"""


def test_a_name_the_benchmark_reads_and_the_package_lacks_is_rejected():
    assert sorted(_unresolved(_benchmark_reads(PLANTED_BENCHMARK))) == [
        "racedigest.detector.RaceReport.to_nothing",
        "racedigest.digest.NoSuchDigest",
        "racedigest.digest.no_such_law",
    ]
