"""The interned oracle against the frozenset enumerator it replaced: trace
sets (recorded per new closure here, collected per state there), racy
pairs and the per-pomset causality index must all match, compared by
content (``reference.content``), as the oracle holds its sets as masks."""

from __future__ import annotations

import json

import pytest

from racedigest import oracle
from racedigest.dsl import parse_program
from racedigest.model import instrument_atomicity
from racedigest.oracle import enumerate_traces, find_racy_pairs, trace_step_observing

from perfbench.gen import interleave_program as perfbench_interleave
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
    # two instances that each can create, so a width bound makes creates compete
    "nested-create": "global g\n\nmain:\n  create t as c1\n  create t as c2\n"
                     "\nt:\n  create u as d\n  g = 2\n\nu:\n  skip\n",
    # x takes one of two paths under a; e learns one through a and y the
    # other, so e's lock b observing y's unlock b meets two events of x at
    # one (instance, index), and only that rejects the merge
    "fork-seen-twice": "mutex a\nmutex b\n\nmain:\n  init a\n  init b\n  create x as cx\n"
                       "  create y as cy\n  create e as ce\n\nx:\n  lock a\n  goto A B\n"
                       "  label A\n  skip\n  goto C\n  label B\n  skip\n  label C\n"
                       "  unlock a\n\ny:\n  lock a\n  unlock a\n  lock b\n  unlock b\n"
                       "\ne:\n  lock a\n  unlock a\n  lock b\n",
}
CORPUS = sorted(p.parent.name for p in CORPUS_DIR.glob("*/program.rlp"))
INPUTS = [
    pytest.param(name, bounds, id=name + ("" if bounds is None else "@{}/{}".format(*bounds)))
    for name, bounds in (
        [(name, None) for name in CORPUS]
        + [(name, bounds) for bounds in ((6, 2), (12, 3)) for name in CORPUS]
        + [(name, (60, 5)) for name in GENERATED]
        # cut by width only (the reduced search) and by depth (its fallback)
        + [("interleave-3x2", (60, 3)), ("interleave-3x2", (20, 5)), ("nested-create", (60, 3))]
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
    want = reference.enumerate_traces(program, depth=depth, width=width)
    content = reference.content
    # recorded per new closure, collected per state; each trace listed once
    assert {content(t) for t in got.traces} == {content(t) for t in want.traces}
    assert len({content(t) for t in got.traces}) == len(set(got.traces)) == len(got.traces)
    assert {content(p) for p in got.pomsets} == {content(p) for p in want.pomsets}
    assert len(got.pomsets) == len(want.pomsets)
    assert got.truncated == want.truncated
    assert bool(got.truncated_by) == got.truncated
    assert find_racy_pairs(got) == reference.find_racy_pairs(want)

    for pom in got.pomsets:
        idx = pom.causality()
        assert idx.events == reference.sorted_events(pom)
        for i, e in enumerate(idx.events):
            pred = idx.pred[i]
            assert (None if pred is None else idx.events[pred]) == reference.po_pred(pom, e)


@pytest.mark.parametrize("name,bounds", [pytest.param(name, None, id=name) for name in CORPUS]
                         + [pytest.param(name, (60, 5), id=name) for name in GENERATED])
def test_observing_steps_match_reference(name, bounds):
    """The merge on ids takes the frozenset merge's verdict on every pair
    of traces at every observing edge, and builds the same trace."""
    program, (depth, width) = _input(name, bounds)
    traces = enumerate_traces(program, depth=depth, width=width).traces
    as_sets = {t: reference.Trace(t.events, t.deps, t.top, t.history) for t in traces}
    merged = 0
    for edge in program.all_edges():
        if not edge.action.is_observing:
            continue
        for t0 in traces:
            if t0.ego_node() != edge.source:
                continue
            for t1 in traces:
                got = trace_step_observing(program, edge, t0, t1)
                want = reference.step_observing(program, edge, as_sets[t0], as_sets[t1])
                assert (got and reference.content(got)) == (want and reference.content(want))
                merged += got is not None
    assert merged or name in ("empty_main", "guard_without_once", "unlock_unheld_stuck")


def test_generated_inputs_race_and_truncate():
    """The generated inputs race, and the small bounds cut."""
    program, (depth, width) = _input("interleave-3x2", (60, 5))
    assert find_racy_pairs(enumerate_traces(program, depth=depth, width=width))
    ts = enumerate_traces(corpus_program("prog1_running_example"), depth=6, width=2)
    assert ts.truncated and ts.truncated_by


def test_reduced_search_and_its_depth_fallback():
    """Width alone leaves the reduced search exact; a depth cut makes it give
    up, so the enumeration runs again unreduced."""
    program, _ = _input("interleave-3x2", None)
    for bounds, cut, reduced in (((60, 3), ("width",), True), ((20, 5), ("depth",), False)):
        assert enumerate_traces(program, *bounds).truncated_by == cut
        assert (oracle._explore(program, *bounds, reduce=True) is not None) == reduced


def test_reduction_cuts_successor_computations(monkeypatch):
    """Each pomset is reached through far fewer states: the reduced search
    computes at most a third of the unreduced search's successors."""
    program = instrument_atomicity(parse_program(perfbench_interleave(3, 2, 0)))
    calls = {True: 0, False: 0}
    apply = oracle._apply
    for reduce in calls:
        def counting(*args, reduce=reduce):
            calls[reduce] += 1
            return apply(*args)
        monkeypatch.setattr(oracle, "_apply", counting)
        _, pomsets, blocked, _ = oracle._explore(program, 60, 5, reduce=reduce)
        assert not blocked and len(pomsets) == 144
    assert 3 * calls[True] <= calls[False]
