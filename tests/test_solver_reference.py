"""The view-grouped solver against the ungrouped reference: the same least
solution on every program and digest combination, never more evaluations,
and each solution a post-fixpoint of the full, ungrouped constraints."""

from __future__ import annotations

import pytest

from racedigest.digests import CANONICAL_ORDER, ProductDigest, build_digests
from racedigest.dsl import parse_program
from racedigest.model import instrument_atomicity
from racedigest.solver import build_system, solve, verify_postfixpoint

from perfbench.gen import locked_program
from tests.conftest import CORPUS_DIR, GENERATED, corpus_program, solution_json
from tests.reference_solver import reference_solve
from tests.test_sweep import locked_program as sweep_locked_program

SOURCES = {
    **GENERATED,
    "sweep-locked-4/4/6": sweep_locked_program(4, 4, 6),
    "locked-6/6/12-s0": locked_program(6, 6, 12, 0),
}
PROGRAMS = sorted(p.parent.name for p in CORPUS_DIR.glob("*/program.rlp")) + sorted(SOURCES)


def _digests() -> list:
    """The product of all five, each digest alone (not in a product), and
    the tid+join product."""
    return [
        ProductDigest(build_digests(CANONICAL_ORDER)),
        *build_digests(CANONICAL_ORDER),
        ProductDigest(build_digests(("tid", "join"))),
    ]


def _program(name: str):
    if name in SOURCES:
        return instrument_atomicity(parse_program(SOURCES[name]))
    return corpus_program(name)


@pytest.mark.parametrize("name", PROGRAMS)
def test_grouped_solver_matches_reference(name):
    program = _program(name)
    for digest in _digests():
        cs = build_system(program, digest)
        sol, ref = solve(cs), reference_solve(cs)
        assert solution_json(sol) == solution_json(ref), digest.name
        assert verify_postfixpoint(sol) and verify_postfixpoint(ref), digest.name
        assert sol.evaluations <= ref.evaluations, digest.name


def test_grouping_cuts_evaluations_on_locked_8_8_16():
    program = instrument_atomicity(parse_program(locked_program(8, 8, 16, 0)))
    cs = build_system(program, ProductDigest(build_digests(CANONICAL_ORDER)))
    ref = reference_solve(cs)
    assert ref.evaluations == 14_246
    assert solve(cs).evaluations * 5 <= ref.evaluations
