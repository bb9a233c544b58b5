from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from racedigest import conformance
from racedigest.conformance import (
    CorpusCase,
    load_corpus,
    run_all_suites,
    run_equivalence_suite,
    run_expectation_suite,
    run_law_suite,
    run_mutant_suite,
    run_soundness_suite,
    run_subsumption_suite,
)
from racedigest.cli import main
from racedigest.detector import RaceReport, detect
from racedigest.digest import (
    MUTANTS,
    EagerMayRunTid,
    LawTables,
    check_access_stability,
    check_admissibility,
)
from racedigest.digests import CANONICAL_ORDER, ProductDigest, ThreadIdDigest, build_digests
from racedigest.dsl import parse_program
from racedigest.model import instrument_atomicity
from racedigest.solver import build_system, solve

from perfbench.gen import expected_json, interleave_racy, locked_racy
from tests.conftest import CORPUS_DIR, GENERATED


def _case(name: str, **edits) -> CorpusCase:
    """The corpus case ``name``, made anew in memory from its two files,
    with the top-level keys ``edits`` replaced in its expected.json."""
    directory = CORPUS_DIR / name
    expected = json.loads((directory / "expected.json").read_text(encoding="utf-8"))
    source = (directory / "program.rlp").read_text(encoding="utf-8")
    return CorpusCase(name, source, {**expected, **edits})


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
    assert cases[0].report() is cases[0].report()


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
        for law, report in (
                ("admissibility", check_admissibility(laws)),
                ("stability", check_access_stability(mutant, case.program, laws.realized))):
            if not report.passed:
                return case.name, law
        flagged = detect(solve(build_system(case.program, product)), product).flagged
        if not case.oracle_site_pairs() <= flagged.keys():
            return case.name, "soundness"
    return None


def test_each_mutant_is_caught_where_pinned(corpus_cases):
    # "mutants: 5 checks" cannot tell a law catch from a soundness catch, so
    # a broken law path could pass a mutant on to soundness unnoticed
    caught = {}
    for target, factory in sorted(MUTANTS.items()):
        mutant = factory()
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
    assert cases[0].traces().truncated
    section = run_soundness_suite(cases)
    assert not section.passed
    assert section.failures == ["spin: enumeration truncated (bounds too small)"]


def test_generated_programs_pass_as_in_memory_cases():
    # the truth of each generated program is analytic, at the benchmark's
    # bounds; no file is written
    cases = []
    for name, source in sorted(GENERATED.items()):
        truth = interleave_racy if name.startswith("interleave") else locked_racy
        racy = truth(instrument_atomicity(parse_program(source)))
        cases.append(CorpusCase(name, source, json.loads(expected_json(name, racy, 60, 5))))
    assert len(cases) == 6
    for suite in (run_expectation_suite, run_soundness_suite, run_law_suite,
                  run_equivalence_suite, run_subsumption_suite):
        section = suite(cases)
        assert section.passed and section.checks > 0, (section.name, section.failures)


def test_in_memory_case_reports_as_its_directory(tmp_path):
    name = "prog1_running_example"
    shutil.copytree(CORPUS_DIR / name, tmp_path / name)
    want = run_all_suites(load_corpus(tmp_path)).to_text()
    assert run_all_suites([_case(name)]).to_text() == want
    assert "[pass] laws: " in want


@pytest.mark.parametrize("action, expected, error", [
    ("g = 1", {"bounds": {"depth": 40}, "racy": [], "race_free_subsets": []},
     "c: expected.json lacks bounds.width"),
    ("g = = 1", {"bounds": {"depth": 40, "width": 4}, "racy": [], "race_free_subsets": []},
     "c: program.rlp: line 4:1: cannot parse action 'g = = 1'"),
], ids=["expected-lacks-width", "program-syntax"])
def test_in_memory_case_is_checked_when_made(action, expected, error):
    with pytest.raises(ValueError) as exc:
        CorpusCase("c", f"global g\n\nmain:\n  {action}\n", expected)
    assert str(exc.value) == error


# Each suite's failure path, reached by a planted fault: an edited truth, a
# digest the suites build in place of a shipped one, or a broken detector or
# race definition.  Each message names the case.

def _plant(monkeypatch, target: str, digest) -> None:
    """The suites build ``digest`` in place of the shipped digest ``target``."""
    shipped = conformance.build_digests
    monkeypatch.setattr(conformance, "build_digests", lambda names: tuple(
        digest if d.name == target else d for d in shipped(names)))


class _BlindTid(ThreadIdDigest):
    """Excludes no pair, so it is weaker than the thread flag."""

    def mhp(self, glob, a, b):
        return True


class _AntiMonotoneReport(RaceReport):
    """Flags a key when one of its masks meets the enabled predicates, so
    enabling a predicate flags more, never less."""

    def witnesses(self, enabled: int) -> dict:
        return {key: pair for key, masks in self.masks.items()
                for mask, pair in masks.items() if mask & enabled}


def test_expectations_report_wrong_frozen_races():
    case = _case("prog0_unsync_writes", racy=[])
    section = run_expectation_suite([case])
    assert section.failures == [
        f"prog0_unsync_writes: oracle races {sorted(case.oracle_site_pairs())} != expected []"
    ]


def test_expectations_report_a_race_free_subset_that_flags():
    section = run_expectation_suite([_case("prog1_running_example",
                                           race_free_subsets=[["lockset"]])])
    assert section.failures == [
        "prog1_running_example: subset ['lockset'] should prove race freedom but flags "
        "[(('main.s0', 'W'), ('main.s0', 'W')), (('main.s0', 'W'), ('main.s1', 'W')), "
        "(('main.s0', 'W'), ('t1.s0', 'W'))]"
    ]


def test_soundness_reports_a_miss_under_a_subset(monkeypatch):
    _plant(monkeypatch, "tid", EagerMayRunTid())
    case = _case("deep_paths_all_race")
    section = run_soundness_suite([case])
    races = sorted(case.oracle_site_pairs())
    assert (f"deep_paths_all_race: subset ['tid@eager-mayrun'] misses real races {races}"
            in section.failures)
    assert all(f.startswith("deep_paths_all_race: subset ") for f in section.failures)


def test_soundness_judges_a_component_of_any_name(monkeypatch):
    # the subsets come from the names in each case's report, so a planted
    # component is enabled and judged under its own name
    _plant(monkeypatch, "tid", EagerMayRunTid())
    cases = load_corpus(CORPUS_DIR)
    assert cases[0].report().digests == tuple(
        "tid@eager-mayrun" if n == "tid" else n for n in CANONICAL_ORDER)
    section = run_soundness_suite(cases)
    assert section.checks == 7047  # as with the shipped digests
    assert len(section.failures) == 144
    assert all(" misses real races " in f or " flags more than " in f for f in section.failures)
    assert any("'tid@eager-mayrun'" in f for f in section.failures)


def test_soundness_reports_flags_that_grow_with_the_subset(monkeypatch):
    real = conformance.detect

    def anti_monotone(sol, product):
        r = real(sol, product)
        return _AntiMonotoneReport(r.digests, r.modes, r.masks, r.record_counts)

    monkeypatch.setattr(conformance, "detect", anti_monotone)
    section = run_soundness_suite([_case("prog1_running_example")])
    assert "prog1_running_example: enabling ['lockset'] flags more than []" in section.failures
    assert all(f.startswith("prog1_running_example: enabling ") for f in section.failures)


def test_law_suite_names_the_case_the_digest_and_the_law(monkeypatch):
    mutant = MUTANTS["lockset"]()
    _plant(monkeypatch, "lockset", mutant)
    case = _case("combo_needs_both")
    section = run_law_suite([case])
    first = check_admissibility(LawTables(mutant, case.traces())).violations[0]
    assert first.law == "simulation"
    want = f"combo_needs_both: lockset@overlap-empty: simulation: {first.detail}"
    assert section.failures[0] == want


def test_equivalence_reports_a_mismatch(monkeypatch):
    monkeypatch.setattr(conformance, "bidirectionally_compatible", lambda *args: False)
    case = _case("prog0_unsync_writes")
    section = run_equivalence_suite([case])
    assert section.failures == [
        f"prog0_unsync_writes: bidirectionally compatible [] != racy "
        f"{sorted(case.oracle_site_pairs())}"
    ]


def test_subsumption_reports_a_tid_weaker_than_the_thread_flag(monkeypatch):
    _plant(monkeypatch, "tid", _BlindTid())
    section = run_subsumption_suite([_case("prog1_running_example")])
    assert ("prog1_running_example: g main.s0/t1.s0: threadflag excludes but tid does not"
            in section.failures)
    assert all(f.startswith("prog1_running_example: g ") for f in section.failures)


_COUNTED_CONFORM = """
import sys
from racedigest import oracle
from racedigest.cli import main

steps = 0
step = oracle._extend


def counting(*args):
    global steps
    steps += 1
    return step(*args)


oracle._extend = counting
code = main(["conform", sys.argv[1]])
print(steps, code)
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
    steps, code = map(int, counts.split())
    assert steps > 0 and code == 0


CONFORM_CORPUS_REPORT = """\
[pass] expectations: 56 checks
[pass] soundness: 7047 checks
[pass] laws: 10028 checks
[pass] equivalence: 91 checks
[pass] tid-subsumes-threadflag: 102 checks
[pass] mutants: 5 checks
all suites pass
"""


def test_conform_corpus_report_is_pinned(capsys):
    # the check counts say how much each suite did: a harness change that
    # drops law checks shows here
    code = main(["conform", str(CORPUS_DIR)])
    assert (code, capsys.readouterr().out) == (0, CONFORM_CORPUS_REPORT)
