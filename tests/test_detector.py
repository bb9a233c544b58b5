from __future__ import annotations

import json

import pytest

from racedigest.detector import (BESPOKE, GENERIC, RaceReport, _key_masks, ablate, detect,
                                 predicate_subsets)
from racedigest.digest import ProductDigest
from racedigest.digests import CANONICAL_ORDER, build_digests
from racedigest.dsl import parse_program
from racedigest.model import instrument_atomicity
from racedigest.oracle import enumerate_traces, find_racy_pairs
from racedigest.solver import build_system, solve

from perfbench.gen import locked_program
from tests.reference_detector import distinct_site_pairs, reference_detect


def run(program, names, modes=None):
    product = ProductDigest(build_digests(names))
    sol = solve(build_system(program, product))
    return detect(sol, product, modes)


def sites(report, predicates=None):
    """Flagged node pairs, with every predicate or only ``predicates``."""
    enabled = report.flagged if predicates is None else report.witnesses(
        report.mask_of(predicates))
    return {(a[0], b[0]) for _, a, b in enabled}


def test_prog1_combined_digests_prove_race_freedom(prog1):
    assert run(prog1, ["lockset", "threadflag"]).flagged == {}
    assert run(prog1, ["lockset", "tid"]).flagged == {}


def test_prog1_lockset_alone(prog1):
    report = run(prog1, ["lockset"])
    assert sites(report) == {
        ("main.s0", "main.s0"),
        ("main.s0", "main.s1"),
        ("main.s0", "t1.s0"),
    }
    assert {p[1:] for p in distinct_site_pairs(report)} == {
        (("main.s0", "W"), ("main.s1", "W")),
        (("main.s0", "W"), ("t1.s0", "W")),
    }


def test_prog1_threadflag_alone(prog1):
    report = run(prog1, ["threadflag"])
    assert sites(report) == {("main.s1", "t1.s0"), ("t1.s0", "t1.s0")}


# Two instances of one prototype, each creating a child: a child races
# with the instance that is not its creator, which tid's may_run must not
# order just because the child's path is longer.
COUSINS = """\
global g

main:
  create w as e1
  create w as e2

w:
  g = 1
  create u as e3

u:
  g = 2
"""


def test_cousin_races_are_flagged_under_every_subset():
    program = instrument_atomicity(parse_program(COUSINS))
    ts = enumerate_traces(program, depth=40, width=5)
    assert not ts.truncated
    racy = {(r.glob, r.site_a, r.site_b) for r in find_racy_pairs(ts)}
    assert len(racy) == 3
    report = run(program, CANONICAL_ORDER)
    for subset in predicate_subsets(report.digests):
        assert racy <= report.witnesses(report.mask_of(subset)).keys(), subset


def test_identical_records_can_race(prog0):
    # no exclusion at all flags the self pairs too: equal digests may
    # belong to different concrete threads
    report = run(prog0, ["lockset"])
    assert sites(report, ()) == {
        ("main.s0", "main.s0"),
        ("main.s0", "t1.s0"),
        ("t1.s0", "t1.s0"),
    }


def test_self_pair_exclusion_needs_thread_identity(prog0):
    # the flag knows main is unique but not that t1 is; thread ids know both
    report = run(prog0, ["threadflag"])
    assert sites(report) == {("main.s0", "t1.s0"), ("t1.s0", "t1.s0")}
    report = run(prog0, ["tid"])
    assert sites(report) == {("main.s0", "t1.s0")}


def test_read_pairs_never_flagged():
    from tests.conftest import corpus_program

    p = corpus_program("read_only_pair")
    assert sites(run(p, ["lockset"]), ()) == set()


def test_generic_mode_weaker_than_bespoke(prog1):
    bespoke = sites(run(prog1, ["lockset"]))
    generic = sites(run(prog1, ["lockset"], {"lockset": GENERIC}))
    assert bespoke < generic
    assert generic - bespoke == {
        ("main.s1", "main.s1"),
        ("main.s1", "t1.s0"),
        ("t1.s0", "t1.s0"),
    }


def test_mode_validation(prog1):
    with pytest.raises(ValueError):
        run(prog1, ["lockset"], {"threadflag": BESPOKE})
    for mode in ("sometimes", "disabled"):
        with pytest.raises(ValueError):
            run(prog1, ["lockset"], {"lockset": mode})


def test_detect_and_ablate_refuse_a_foreign_product(prog1):
    product = ProductDigest(build_digests(["lockset", "threadflag"]))
    sol = solve(build_system(prog1, product))
    twin = ProductDigest(build_digests(["lockset", "threadflag"]))
    for call in (lambda: detect(sol, twin), lambda: detect(sol, twin, {"lockset": GENERIC}),
                 lambda: ablate(sol, twin)):
        with pytest.raises(ValueError, match="not the one the solution was solved for"):
            call()
    assert detect(sol, product).flagged == {}


def test_key_masks_of_two_groups_visit_pairs_below_the_diagonal():
    """Between two distinct groups every row meets every column: here the
    one pair no predicate excludes, records 1 and 2, is row 1 against
    column 0, below the diagonal of the rows x cols grid."""
    rows, cols = [(0, "a0"), (1, "a1")], [(2, "b0"), (3, "b1")]
    table = (1, [0, 1, 2, 3], [0, 1, 2, 3], 4, lambda glob, x, y: {x, y} == {1, 2}, {})
    masks = _key_masks("g", rows, cols, [table])
    assert masks == {1: ("a0", "b0"), 0: ("a1", "b0")}


def test_report_metadata_and_witnesses(prog0):
    report = run(prog0, ["threadflag", "tid"])
    assert list(report.flagged) == [("g", ("main.s0", "W"), ("t1.s0", "W"))]
    (entry,) = json.loads(report.to_json_text())["flagged"]
    assert [(v["digest"], v["verdict"]) for v in entry["verdicts"]] == [
        ("threadflag", "top"), ("tid", "top")
    ]
    assert report.record_counts == {"g": 2}


def test_report_json_schema(prog0):
    report = run(prog0, ["lockset"])
    payload = json.loads(report.to_json_text())
    assert payload["version"] == 1
    assert payload["race_free"] is False
    flagged = payload["flagged"]
    assert flagged == sorted(
        flagged, key=lambda f: (f["global"], f["a"]["site"], f["b"]["site"])
    )
    json.dumps(payload)  # serializable


def _dumped(report) -> str:
    """The report's JSON text, parsed and dumped again canonically."""
    return json.dumps(json.loads(report.to_json_text()), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("mode", [BESPOKE, GENERIC])
def test_json_text_is_json_dumps_on_the_corpus(corpus_cases, mode):
    for case in corpus_cases:
        sol = case.solution()
        product = sol.system.digest
        modes = {name: mode for name in CANONICAL_ORDER}
        want = reference_detect(sol, product, modes).to_json_text()
        assert detect(sol, product, modes).to_json_text() == want, case.name


def test_json_text_of_a_race_free_report(prog1):
    report = run(prog1, ["lockset", "threadflag"])
    text = report.to_json_text()
    assert text == _dumped(report)
    assert '"flagged": []' in text and '"race_free": true' in text


def test_json_text_on_a_generated_locked_program():
    program = instrument_atomicity(parse_program(locked_program(6, 6, 12, 0)))
    report = run(program, CANONICAL_ORDER)
    assert len(report.flagged) > 500
    assert report.to_json_text() == _dumped(report)
    flagged = json.loads(report.to_json_text())["flagged"]
    assert [(f["global"], f["a"]["site"], f["b"]["site"]) for f in flagged] == [
        (glob, a[0], b[0]) for glob, a, b in report.flagged
    ]


def test_json_text_escapes_like_json_dumps():
    # quotes, backslashes, newlines, non-ASCII and % signs in every string
    odd = ("g\"%s", ("n\\1", "W"), ("\u00e9%d", "R"))
    report = RaceReport(
        ("a%s", "b\n"), {"a%s": BESPOKE, "b\n": GENERIC},
        {odd: {0: ("x%(y)s", "\u00fc\n\t")}}, {odd[0]: 2},
    )
    assert len(report.flagged) == 1
    assert report.to_json_text() == _dumped(report)
    assert json.loads(report.to_json_text()) == {
        "version": 1,
        "digests": ["a%s", "b\n"],
        "modes": {"a%s": BESPOKE, "b\n": GENERIC},
        "accesses": {odd[0]: 2},
        "race_free": False,
        "flagged": [{
            "global": odd[0],
            "a": {"site": "n\\1", "type": "W"},
            "b": {"site": "\u00e9%d", "type": "R"},
            "witness_digests": ["x%(y)s", "\u00fc\n\t"],
            "verdicts": [{"digest": "a%s", "verdict": "top"}, {"digest": "b\n", "verdict": "top"}],
        }],
    }


def test_text_report_includes_source_lines(prog0):
    report = run(prog0, ["lockset", "threadflag"])
    text = report.to_text(prog0)
    assert "race on g" in text
    assert "(line" in text


def test_ablation_rows_and_monotonicity(prog1):
    product = ProductDigest(build_digests(["lockset", "threadflag", "tid", "join", "once"]))
    sol = solve(build_system(prog1, product))
    rows = ablate(sol, product)
    assert len(rows) == 32
    by_subset = {frozenset(r["predicates"]): r["flagged"] for r in rows}
    for small, n_small in by_subset.items():
        for big, n_big in by_subset.items():
            if small <= big:
                assert n_big <= n_small
    assert by_subset[frozenset()] == 6
    assert by_subset[frozenset({"lockset", "threadflag"})] == 0
