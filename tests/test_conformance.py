from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from racedigest.conformance import (
    InconclusiveBounds,
    load_corpus,
    run_equivalence_suite,
    run_expectation_suite,
    run_law_suite,
    run_mutant_suite,
    run_soundness_suite,
    run_subsumption_suite,
)
from racedigest.cli import main
from racedigest.detector import detect
from racedigest.digest import LawTables, ProductDigest, check_access_stability, check_admissibility
from racedigest.digests import CANONICAL_ORDER, DEFAULT_TID_CAP, MUTANTS, build_digests
from racedigest.solver import build_system, solve

from tests.conftest import CORPUS_DIR


def test_corpus_loads_and_is_tagged(corpus_cases):
    assert len(corpus_cases) >= 25
    for case in corpus_cases:
        assert case.expected["provenance"] in ("figure", "derived", "trivial")
        assert case.expected["bounds"]["depth"] >= 1


def test_corpus_enumerates_exhaustively(corpus_cases):
    for case in corpus_cases:
        assert not case.traces().truncated, case.name


def test_every_access_locally_bracketed(corpus_cases):
    # each access edge sits between a lock and an unlock of its atomicity mutex
    from racedigest.model import access_sequence, access_sites, atomicity_mutex

    for case in corpus_cases:
        for site, glob, _ in access_sites(case.program):
            lock_e, acc_e, unl_e = access_sequence(case.program, site)
            mg = atomicity_mutex(glob)
            assert lock_e.action.target == mg and unl_e.action.target == mg
            assert len(case.program.edges_from(site)) == 1
            assert len(case.program.edges_from(acc_e.target)) == 1


def test_expectation_suite(corpus_cases):
    section = run_expectation_suite(corpus_cases)
    assert section.passed, "\n".join(section.failures)


def test_soundness_suite(corpus_cases):
    section = run_soundness_suite(corpus_cases)
    assert section.passed, "\n".join(section.failures)
    assert section.checks > 5000  # 2^5 subsets across the whole corpus


def test_expectation_and_soundness_share_one_report(monkeypatch):
    from racedigest import conformance

    calls = []
    real_detect = conformance.detect

    def counted(*args):
        calls.append(args)
        return real_detect(*args)

    monkeypatch.setattr(conformance, "detect", counted)
    cases = load_corpus(CORPUS_DIR)
    assert run_expectation_suite(cases).passed and run_soundness_suite(cases).passed
    assert len(calls) == len(cases)
    assert cases[0].report(DEFAULT_TID_CAP) is cases[0].report(DEFAULT_TID_CAP)


def test_law_suite(corpus_cases):
    section = run_law_suite(corpus_cases)
    assert section.passed, "\n".join(section.failures)


def test_equivalence_suite(corpus_cases):
    section = run_equivalence_suite(corpus_cases)
    assert section.passed, "\n".join(section.failures)


def test_subsumption_suite(corpus_cases):
    section = run_subsumption_suite(corpus_cases)
    assert section.passed, "\n".join(section.failures)


def test_mutant_suite_kills_all(corpus_cases):
    section = run_mutant_suite(corpus_cases)
    assert section.passed, "\n".join(section.failures)


def _first_catch(cases, mutant, product) -> tuple[str, str] | None:
    """The first case that catches ``mutant`` and what catches it there,
    tried as the mutant suite tries them: admissibility, then access
    stability, then a race the product holding the mutant misses."""
    for case in cases:
        laws = LawTables(mutant, case.traces())
        for law, check in (("admissibility", check_admissibility),
                           ("stability", check_access_stability)):
            if not check(laws).passed:
                return case.name, law
        flagged = detect(solve(build_system(case.program, product)), product).site_pairs()
        if not case.oracle_site_pairs() <= flagged:
            return case.name, "soundness"
    return None


def test_each_mutant_is_caught_where_pinned(corpus_cases):
    # "mutants: 5 checks" cannot tell a law catch from a soundness catch, so
    # a broken law path could pass a mutant on to soundness unnoticed
    caught = {}
    for target, factory in sorted(MUTANTS.items()):
        mutant = factory(DEFAULT_TID_CAP) if target in ("tid", "join") else factory()
        components = list(build_digests(CANONICAL_ORDER))
        components[CANONICAL_ORDER.index(target)] = mutant
        caught[mutant.name] = _first_catch(corpus_cases, mutant, ProductDigest(tuple(components)))
    assert caught == {
        "join@premature": ("combo_needs_both", "admissibility"),
        "lockset@overlap-empty": ("combo_needs_both", "admissibility"),
        "once@completed-pair": ("once_after_completion", "soundness"),
        "threadflag@spawned-pair": ("deep_paths_all_race", "soundness"),
        "tid@eager-mayrun": ("deep_paths_all_race", "soundness"),
    }


@pytest.mark.parametrize("name, survivors", [
    ("empty_main", ["join@premature", "lockset@overlap-empty", "once@completed-pair",
                    "threadflag@spawned-pair", "tid@eager-mayrun"]),
    ("st_main_only", ["lockset@overlap-empty", "once@completed-pair",
                      "threadflag@spawned-pair", "tid@eager-mayrun"]),
])
def test_mutant_suite_reports_survivors(corpus_cases, name, survivors):
    # a case that catches no mutant, and one that catches only join@premature:
    # stopping at the first catching case must not lose a survivor
    case = next(c for c in corpus_cases if c.name == name)
    section = run_mutant_suite([case])
    assert section.checks == 5
    assert section.failures == [
        f"mutant {m} (for {m.split('@')[0]}) survives all suites" for m in survivors
    ]


def test_broken_lockset_fails_admissibility(corpus_cases):
    mutant = MUTANTS["lockset"]()
    case = next(c for c in corpus_cases if c.name == "prog1_running_example")
    report = check_admissibility(LawTables(mutant, case.traces()))
    assert not report.passed
    assert any(v.law == "simulation" for v in report.violations)


def test_inconclusive_bounds_detected(tmp_path):
    (tmp_path / "spin").mkdir()
    (tmp_path / "spin" / "program.rlp").write_text(
        "global g\n\nmain:\n  skip\n  label T\n  g = 1\n  goto T\n"
    )
    (tmp_path / "spin" / "expected.json").write_text(
        '{"name": "spin", "provenance": "derived",'
        ' "bounds": {"depth": 8, "width": 2}, "racy": [], "race_free_subsets": []}'
    )
    cases = load_corpus(tmp_path)
    with pytest.raises(InconclusiveBounds):
        cases[0].require_exhaustive()
    section = run_soundness_suite(cases)
    assert not section.passed
    assert "InconclusiveBounds" in section.failures[0]


_COUNTED_CONFORM = """
import sys
from racedigest import oracle
from racedigest.cli import main

merges = 0
merge = oracle.trace_step_observing


def counting(*args):
    global merges
    merges += 1
    return merge(*args)


oracle.trace_step_observing = counting
code = main(["conform", sys.argv[1]])
print(merges, code)
"""


def test_conform_work_does_not_depend_on_the_process():
    # a walk in set order over objects hashing None (an address on some
    # Python versions) tries witnesses in a per-process order
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    runs = {
        subprocess.run(
            [sys.executable, "-c", _COUNTED_CONFORM, str(CORPUS_DIR)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for _ in range(3)
    }
    assert len(runs) == 1, sorted(run.splitlines()[-1] for run in runs)
    *report, counts = runs.pop().splitlines()
    assert report[-1] == "all suites pass"
    merges, code = map(int, counts.split())
    assert merges > 0 and code == 0


CONFORM_CORPUS_REPORT = """\
[pass] expectations: 52 checks
[pass] soundness: 6561 checks
[pass] laws: 17932 checks
[pass] equivalence: 85 checks
[pass] tid-subsumes-threadflag: 91 checks
[pass] mutants: 5 checks
all suites pass
"""


def test_conform_corpus_report_is_pinned(capsys):
    # the check counts say how much each suite did: a harness change that
    # drops law checks shows here
    code = main(["conform", str(CORPUS_DIR)])
    assert (code, capsys.readouterr().out) == (0, CONFORM_CORPUS_REPORT)
