"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
from racedigest.dsl import parse_program
from racedigest.model import instrument_atomicity
from racedigest.oracle import enumerate_traces, find_racy_pairs

REPO = Path(__file__).resolve().parents[1]


def _program(text: str):
    return instrument_atomicity(parse_program(text))


def _oracle_racy(program) -> set:
    ts = enumerate_traces(program, *run.ORACLE_BOUNDS)
    assert not ts.truncated
    return {(r.glob, r.site_a, r.site_b) for r in find_racy_pairs(ts)}


@pytest.mark.parametrize("seed", [0, 7])
def test_generators_are_deterministic(seed):
    assert gen.locked_program(4, 3, 5, seed) == gen.locked_program(4, 3, 5, seed)
    assert gen.interleave_program(3, 2, seed) == gen.interleave_program(3, 2, seed)
    assert gen.locked_program(4, 3, 5, seed) != gen.locked_program(4, 3, 5, seed + 1)


def test_locked_program_uses_mutexes_and_globals_evenly():
    lines = [ln.strip() for ln in gen.locked_program(4, 4, 6, 3).splitlines()]
    for name in ("a0", "a1", "a2"):
        assert lines.count(f"lock {name}") == 8
    writes = [ln.split(" = ")[0] for ln in lines if " = " in ln and not ln.startswith("x")]
    reads = [ln.split(" = ")[1] for ln in lines if ln.startswith("x = ")]
    for accessed in (writes, reads):
        assert sorted(accessed) == sorted(["g0", "g1", "g2", "g3"] * 6)


@pytest.mark.parametrize("n,b", [(2, 2), (2, 3)])
def test_interleave_analytic_racy_set_matches_oracle(n, b):
    program = _program(gen.interleave_program(n, b, 5))
    racy = gen.interleave_racy(program)
    assert racy
    assert racy == _oracle_racy(program)


@pytest.mark.parametrize("size", [run.LOCKED_ORACLE_SIZE, (2, 2, 2)])
def test_locked_analytic_racy_set_matches_oracle(size):
    program = _program(gen.locked_program(*size, 2))
    racy = gen.locked_racy(program)
    assert racy
    assert racy == _oracle_racy(program)


def test_sanity_check_catches_unreachable_code():
    text = gen.locked_program(2, 2, 3, 1)
    run.sanity_locked(_program(text))
    broken = "\n".join(ln for ln in text.splitlines() if "initO" not in ln) + "\n"
    with pytest.raises(SystemExit, match="never recorded"):
        run.sanity_locked(_program(broken))


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(1, 12)]) == (9, 1.0)
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "SRC", REPO / "src")
    monkeypatch.setattr(run, "CORPUS", REPO / "corpus")
    monkeypatch.setattr(run, "WORK", REPO / ".perfbench" / "smoke")
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "SETUP_PROBES_PER_REP", 1)
    monkeypatch.setattr(run, "LOCKED_SIZE", (3, 2, 3))
    monkeypatch.setattr(run, "LOCKED_ORACLE_SIZE", (2, 1, 1))
    monkeypatch.setattr(run, "INTERLEAVE_ORACLE_SIZE", (2, 2))
    monkeypatch.setattr(run, "INTERLEAVE_CONFORM_SIZE", (2, 2))
    yield
    shutil.rmtree(REPO / ".perfbench" / "smoke", ignore_errors=True)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    summary = "\n".join(lines)
    assert "fail_ratio" in summary and "environment" in summary
    if trace:
        assert "trace.slowdown" in summary and "oracle.truncated" in summary


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-conform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
