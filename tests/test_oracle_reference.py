"""The interned oracle against the frozenset enumerator it replaced: trace
sets (derived from the pomsets here, collected per state there), racy pairs
with their witnesses, and the per-pomset causality index must all match."""

from __future__ import annotations

import json

import pytest

from racedigest.dsl import parse_program
from racedigest.model import instrument_atomicity
from racedigest.oracle import enumerate_traces, find_racy_pairs

from tests import reference_oracle as reference
from tests.conftest import CORPUS_DIR, corpus_program


def interleave_program(n: int, b: int) -> str:
    """Main creates N workers and then writes h unlocked; each worker takes
    B steps alternating a write of g under a with an unlocked read of h."""
    lines = ["global g", "global h", "mutex a", "", "main:", "  init a"]
    lines += [f"  create w as c{i}" for i in range(n)] + ["  h = 1", "", "w:"]
    for step in range(b):
        lines += ["  lock a", f"  g = {step}", "  unlock a"] if step % 2 == 0 else ["  x = h"]
    return "\n".join(lines) + "\n"


def locked_program(n: int, k: int, b: int) -> str:
    """N threads of B blocks, each a write and a read of the K globals under
    one of two mutexes; main creates and joins every thread."""
    lines = [f"global g{i}" for i in range(k)] + ["mutex a0", "mutex a1", "", "main:"]
    lines += ["  init a0", "  init a1"]
    lines += [f"  create t{i} as e{i}" for i in range(n)] + [f"  join e{i}" for i in range(n)]
    for i in range(n):
        lines += ["", f"t{i}:"]
        for j in range(b):
            m, g = (i + j) % 2, (i * b + j) % k
            lines += [f"  lock a{m}", f"  g{g} = {j}", f"  x = g{g}", f"  unlock a{m}"]
    return "\n".join(lines) + "\n"


GENERATED = {
    "interleave-2x2": interleave_program(2, 2),
    "interleave-2x3": interleave_program(2, 3),
    "interleave-3x2": interleave_program(3, 2),
    "locked-2/1/1": locked_program(2, 1, 1),
}
CORPUS = sorted(p.parent.name for p in CORPUS_DIR.glob("*/program.rlp"))
INPUTS = [
    pytest.param(name, bounds, id=name + ("" if bounds is None else "@{}/{}".format(*bounds)))
    for name, bounds in (
        [(name, None) for name in CORPUS]
        + [(name, bounds) for bounds in ((6, 2), (12, 3)) for name in CORPUS]
        + [(name, (60, 5)) for name in GENERATED]
    )
]


def _input(name: str, bounds):
    if name in GENERATED:
        return instrument_atomicity(parse_program(GENERATED[name])), bounds
    if bounds is None:
        expected = json.loads((CORPUS_DIR / name / "expected.json").read_text(encoding="utf-8"))
        bounds = (expected["bounds"]["depth"], expected["bounds"]["width"])
    return corpus_program(name), bounds


@pytest.mark.parametrize("name,bounds", INPUTS)
def test_oracle_matches_reference(name, bounds):
    program, (depth, width) = _input(name, bounds)
    got = enumerate_traces(program, depth=depth, width=width)
    want, want_traces = reference.enumerate_traces(program, depth=depth, width=width)
    # derived as closures, collected per state; each trace listed once
    assert frozenset(got.traces) == want_traces
    assert len(set(got.traces)) == len(got.traces)
    assert got.pomsets == want.pomsets
    assert got.truncated == want.truncated
    assert bool(got.truncated_by) == got.truncated
    assert got == want

    def witnesses(ts, search):
        return {(r.glob, r.site_a, r.site_b): r.witness for r in search(ts)}

    assert witnesses(got, find_racy_pairs) == witnesses(want, reference.find_racy_pairs)

    for pom in got.pomsets:
        anc = reference.pomset_ancestors(pom)
        for e in pom.events:
            assert pom.closure(e) == reference.closure(pom, e, anc)
            assert pom.po_pred(e) == reference.po_pred(pom, e)
            assert pom.dep_to(e) == reference.dep_to(pom, e)


def test_generated_inputs_race_and_truncate():
    """The generated inputs exercise witnesses, and the small bounds cut."""
    program, (depth, width) = _input("interleave-3x2", (60, 5))
    assert find_racy_pairs(enumerate_traces(program, depth=depth, width=width))
    ts = enumerate_traces(corpus_program("prog1_running_example"), depth=6, width=2)
    assert ts.truncated and ts.truncated_by
