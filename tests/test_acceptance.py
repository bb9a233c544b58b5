"""Acceptance suite: one test per shipped guarantee, with its time budget.

Each test prints a single pass line when it holds; a pytest failure is the
fail line.  Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to
see the pass lines).
"""

from __future__ import annotations

import json
import time

from racedigest.cli import main as cli_main
from racedigest.conformance import (
    run_equivalence_suite,
    run_law_suite,
    run_soundness_suite,
)
from racedigest.detector import GENERIC, detect, predicate_subsets
from racedigest.digest import MUTANTS, LawTables, check_admissibility
from racedigest.digests import CANONICAL_ORDER, ProductDigest, build_digests
from racedigest.oracle import enumerate_traces, find_racy_pairs
from racedigest.solver import build_system, solve

from tests.conftest import CORPUS_DIR, corpus_program
from tests.reference_detector import distinct_site_pairs

FULL = tuple(CANONICAL_ORDER)


def analyze(program, names, modes=None):
    product = ProductDigest(build_digests(names))
    sol = solve(build_system(program, product))
    return detect(sol, product, modes)


def node_pairs(report):
    return {(a[0], b[0]) for _, a, b in report.flagged}


def ok(line: str) -> None:
    print(f"[acceptance] {line}: PASS")


def test_criterion_1_running_example_flag_sets():
    started = time.perf_counter()
    prog1 = corpus_program("prog1_running_example")
    assert analyze(prog1, ["lockset", "threadflag"]).flagged == {}
    assert analyze(prog1, ["lockset", "tid"]).flagged == {}

    lockset_only = analyze(prog1, ["lockset"])
    assert {p[1:] for p in distinct_site_pairs(lockset_only)} == {
        (("main.s0", "W"), ("main.s1", "W")),
        (("main.s0", "W"), ("t1.s0", "W")),
    }
    assert node_pairs(lockset_only) == {
        ("main.s0", "main.s0"),
        ("main.s0", "main.s1"),
        ("main.s0", "t1.s0"),
    }

    threadflag_only = analyze(prog1, ["threadflag"])
    assert node_pairs(threadflag_only) == {("main.s1", "t1.s0"), ("t1.s0", "t1.s0")}
    assert {p[1:] for p in distinct_site_pairs(threadflag_only)} == {
        (("main.s1", "W"), ("t1.s0", "W")),
    }
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    ok("criterion 1: running example, per-digest flag sets")


def test_criterion_2_racy_microbenchmark_under_every_subset():
    started = time.perf_counter()
    prog0 = corpus_program("prog0_unsync_writes")
    race = ("g", ("main.s0", "W"), ("t1.s0", "W"))

    ts = enumerate_traces(prog0, depth=40, width=4)
    assert not ts.truncated
    assert {(r.glob, r.site_a, r.site_b) for r in find_racy_pairs(ts)} == {race}

    product = ProductDigest(build_digests(FULL))
    sol = solve(build_system(prog0, product))
    report = detect(sol, product)
    subsets = predicate_subsets(FULL)
    assert len(set(subsets)) == 2 ** len(FULL)
    for subset in subsets:
        flagged = report.witnesses(report.mask_of(subset))
        assert {p for p in flagged if p[1] != p[2]} == {race}, subset
        assert race in flagged

    for names in (["lockset"], ["threadflag"], ["tid"], ["once"], ["tid", "join"]):
        assert race in analyze(prog0, names).flagged, names

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    ok("criterion 2: one true race under every digest subset")


def test_criterion_3_once_program():
    started = time.perf_counter()
    prog = corpus_program("once_device_init")

    assert analyze(prog, list(FULL)).flagged == {}

    product = ProductDigest(build_digests(FULL))
    sol = solve(build_system(prog, product))
    report = detect(sol, product)
    without_once = report.witnesses(report.mask_of([n for n in FULL if n != "once"]))
    assert without_once, "without once knowledge the writes must be flagged"
    assert all(glob == "dev" for glob, _, _ in without_once)

    ts = enumerate_traces(prog, depth=40, width=4)
    assert not ts.truncated
    assert find_racy_pairs(ts) == frozenset()

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok("criterion 3: once handling proves race freedom, and only with it")


def test_criterion_4_generic_vs_bespoke_locksets():
    prog1 = corpus_program("prog1_running_example")
    bespoke = node_pairs(analyze(prog1, ["lockset"]))
    generic = node_pairs(analyze(prog1, ["lockset"], {"lockset": GENERIC}))
    protected_pair = ("main.s1", "t1.s0")
    assert protected_pair in generic and protected_pair not in bespoke
    assert generic - bespoke == {
        ("main.s1", "main.s1"),
        ("main.s1", "t1.s0"),
        ("t1.s0", "t1.s0"),
    }
    assert bespoke < generic
    ok("criterion 4: bespoke lockset predicate strictly sharper than generic")


def test_criterion_5_law_suite_and_mutant(corpus_cases):
    started = time.perf_counter()
    section = run_law_suite(corpus_cases)
    assert section.passed, "\n".join(section.failures)

    mutant = MUTANTS["lockset"]()
    case = next(c for c in corpus_cases if c.name == "prog1_running_example")
    report = check_admissibility(LawTables(mutant, case.traces()))
    assert not report.passed

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    ok("criterion 5: digest laws hold; broken lockset variant rejected")


def test_criterion_6_race_definitions_agree(corpus_cases):
    section = run_equivalence_suite(corpus_cases)
    assert section.passed, "\n".join(section.failures)
    ok("criterion 6: unordered-pair and both-orders race definitions agree")


def test_criterion_7_soundness_and_monotonicity(corpus_cases):
    section = run_soundness_suite(corpus_cases)
    assert section.passed, "\n".join(section.failures)
    ok("criterion 7: no false negatives across all digest subsets")


def test_criterion_8_deterministic_reports(capsys):
    def artifacts() -> str:
        chunks = []
        for case_dir in sorted(CORPUS_DIR.iterdir()):
            rlp = case_dir / "program.rlp"
            if not rlp.exists():
                continue
            for argv in (
                ["analyze", str(rlp), "--format", "json"],
                ["oracle", str(rlp), "--format", "json"],
                ["ablate", str(rlp), "--format", "json"],
            ):
                cli_main(argv)
                chunks.append(capsys.readouterr().out)
        cli_main(["conform", str(CORPUS_DIR)])
        chunks.append(capsys.readouterr().out)
        return "".join(chunks)

    first = artifacts()
    second = artifacts()
    assert first.encode() == second.encode()
    json.loads(first.split("\n{", 1)[0])  # leading chunk is valid JSON
    ok("criterion 8: byte-identical reports across consecutive runs")
