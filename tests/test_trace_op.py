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
import time

import pytest

import racedigest.cli
import racedigest.conformance
from tests.conftest import CORPUS_DIR

from perfbench import trace_op
from perfbench.gen import locked_program

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


def _in_process_law_checks(monkeypatch, capsys, corpus) -> dict:
    """The checks ``check_access_stability`` and ``check_mhp_commutativity``
    report over an in-process ``conform`` of ``corpus``, by span name."""
    checks = dict.fromkeys(("digest.stability", "digest.commutativity"), 0)
    for name, law in zip(checks, ("check_access_stability", "check_mhp_commutativity")):
        original = getattr(racedigest.conformance, law)

        def counted(*args, _name=name, _original=original):
            report = _original(*args)
            checks[_name] += report.checks
            return report

        monkeypatch.setattr(racedigest.conformance, law, counted)
    assert racedigest.cli.main(["conform", str(corpus)]) == 0
    capsys.readouterr()
    return checks


def test_traced_conform_matches_untraced(tmp_path, monkeypatch, capsys):
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
    # each law span counts the checks the law reports in-process
    for name, want in _in_process_law_checks(monkeypatch, capsys, corpus).items():
        assert want > 0
        assert sum(s["counters"]["checks"] for s in spans if s["name"] == name) == want, name


class _TimedWrites:
    """A text stream that keeps each write with the time it was made."""

    def __init__(self) -> None:
        self.writes: list[tuple[float, str]] = []

    def write(self, text: str) -> int:
        self.writes.append((time.perf_counter(), text))
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_one_report_span_covers_the_streamed_report(monkeypatch, tmp_path, fmt):
    """The tracer wraps ``RaceReport.to_json_text`` and ``to_text`` by name
    as ``detector.report``; ``analyze`` streams its report through them,
    so one such span holds every write of the report."""
    # every attribute the tracer replaces is put back after the test
    for name, module in sorted(sys.modules.items()):
        if name.startswith("racedigest"):
            for _, attr, _, _ in trace_op.INSTRUMENTED:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, getattr(module, attr))
    for cls, attr in trace_op.REPORT_METHODS:
        monkeypatch.setattr(cls, attr, getattr(cls, attr))
    tracer = trace_op.Tracer("op")
    tracer.install()
    path = tmp_path / "locked.rlp"
    path.write_text(locked_program(6, 6, 12, 0), encoding="utf-8")
    out = _TimedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    # generic text is about 75 KB, so both formats take more than one write
    assert racedigest.cli.main(["analyze", str(path), "--predicate", "generic",
                                "--format", fmt]) == 1
    (report,) = [s for s in tracer.spans if s["name"] == "detector.report"]
    (detect,) = [s for s in tracer.spans if s["name"] == "detector.detect"]
    assert tracer.spans[report["parent"]]["name"] == "cli.main"
    assert detect["end"] <= report["start"]
    assert len(out.writes) > 1
    assert all(report["start"] <= t <= report["end"] for t, _ in out.writes)
    assert "".join(text for _, text in out.writes).startswith("{" if fmt == "json" else "digests:")
