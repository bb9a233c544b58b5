"""``analyze`` writes its report to stdout in blocks as it renders it.
What it prints must be, byte for byte, the text ``to_json_text()`` and
``to_text()`` return, both in-process (where a caller may have replaced
``sys.stdout``) and from a fresh ``python -m racedigest.cli`` process."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from racedigest.cli import main
from racedigest.detector import BESPOKE, GENERIC, detect
from racedigest.digests import CANONICAL_ORDER, ProductDigest, build_digests
from racedigest.dsl import parse_program
from racedigest.model import instrument_atomicity
from racedigest.solver import build_system, solve
from tests.conftest import CORPUS_DIR

from perfbench.gen import locked_program

BLOCK = 1 << 16

PROGRAMS = {
    # race-free: no flagged pair
    "prog1": (CORPUS_DIR / "prog1_running_example" / "program.rlp").read_text(encoding="utf-8"),
    # no global, so no access and no flagged pair
    "empty_main": (CORPUS_DIR / "empty_main" / "program.rlp").read_text(encoding="utf-8"),
    # generic JSON is about 1 MB: many blocks and a partial last one
    "locked-6/6/12": locked_program(6, 6, 12, 0),
}

CASES = [(name, predicate, fmt) for name in PROGRAMS
         for predicate in (BESPOKE, GENERIC) for fmt in ("json", "text")]


def _report(name: str, predicate: str):
    program = instrument_atomicity(parse_program(PROGRAMS[name]))
    product = ProductDigest(build_digests(CANONICAL_ORDER))
    report = detect(solve(build_system(program, product)), product,
                    {n: predicate for n in CANONICAL_ORDER})
    return program, report


def _text(name: str, predicate: str, fmt: str) -> tuple[str, int]:
    """The report text and the exit code ``analyze`` gives it."""
    program, report = _report(name, predicate)
    text = report.to_json_text() if fmt == "json" else report.to_text(program)
    return text, 1 if report.flagged else 0


def _argv(tmp_path, name: str, predicate: str, fmt: str) -> list[str]:
    path = tmp_path / "program.rlp"
    path.write_text(PROGRAMS[name], encoding="utf-8")
    return ["analyze", str(path), "--predicate", predicate, "--format", fmt]


def test_the_cases_cover_empty_and_many_block_reports():
    assert _report("prog1", BESPOKE)[1].flagged == {}
    assert _report("empty_main", GENERIC)[1].record_counts == {}
    assert len(_text("locked-6/6/12", GENERIC, "json")[0]) > 10 * BLOCK


@pytest.mark.parametrize("name, predicate, fmt", CASES)
def test_streamed_stdout_is_the_report_text_in_process(capsys, tmp_path, name, predicate, fmt):
    code = main(_argv(tmp_path, name, predicate, fmt))
    captured = capsys.readouterr()
    text, want_code = _text(name, predicate, fmt)
    assert (captured.out, captured.err, code) == (text, "", want_code)


@pytest.mark.parametrize("name, predicate, fmt", CASES)
def test_streamed_stdout_is_the_report_text_of_the_process(tmp_path, name, predicate, fmt):
    env = dict(os.environ, PYTHONPATH=str(CORPUS_DIR.parent / "src"))
    argv = [sys.executable, "-m", "racedigest.cli", *_argv(tmp_path, name, predicate, fmt)]
    done = subprocess.run(argv, env=env, capture_output=True, check=False, timeout=120)
    text, code = _text(name, predicate, fmt)
    assert (done.stdout, done.stderr, done.returncode) == (text.encode("ascii"), b"", code)


class _Writes:
    """A text stream that keeps each write."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("name, predicate, fmt", CASES)
def test_report_is_written_in_blocks(name, predicate, fmt):
    program, report = _report(name, predicate)
    out = _Writes()
    if fmt == "json":
        assert report.to_json_text(out) is None
    else:
        assert report.to_text(program, out) is None
    *full, last = out.writes
    assert all(len(block) >= BLOCK for block in full)
    assert 0 < len(last)
    assert "".join(out.writes) == _text(name, predicate, fmt)[0]
