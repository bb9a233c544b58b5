"""The interned oracle against the frozenset enumerator it replaced: trace
sets (recorded per new closure here, collected per state there), pomsets
and racy pairs must all match, compared by content
(``reference.content``), as the oracle holds its sets as masks.  The
oracle decides each racy pair as its search takes the later access, from
masks of the traces it records; the reference walks the causality order
of every pomset with the global's ``m_g`` order stripped.  The steps the
search records are checked against the reference steps on frozensets.
The generated inputs include races that rest on a dep other than
``m_g``, and a program whose merges would give a thread start two create
deps."""

from __future__ import annotations

import json

import pytest

from racedigest import oracle
from racedigest.dsl import parse_program
from racedigest.model import instrument_atomicity
from racedigest.oracle import enumerate_traces, find_racy_pairs

from perfbench.gen import interleave_program as perfbench_interleave
from tests import reference_oracle as reference
from tests.conftest import CORPUS_DIR, ONCE_HANDOFF, corpus_program


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
    # q's read follows p's write over m_g only, a race; q's lock a then
    # orders p's write before q's write, which is no race
    "ordered-again": "global g\nmutex a\n\nmain:\n  init a\n  create p as c1\n"
                     "  create q as c2\n\np:\n  lock a\n  g = 1\n  unlock a\n\nq:\n"
                     "  x = g\n  lock a\n  g = 2\n  unlock a\n",
    # b's `pos ran o` needs a's endO, so b reads g after a's writes, which
    # reach it over m_g only; its child c inherits that past, so the join
    # of c merges two traces that order a's writes over m_g only: b's write
    # races with them
    "hidden-in-both": "global g\nonce o\n\nmain:\n  initO o\n  create a as ea\n"
                      "  create b as eb\n\na:\n  g = 1\n  once o\n    skip\n  end\n"
                      "  g = 3\n\nb:\n  x = g\n  pos ran o\n  create c as ec\n"
                      "  join ec\n  g = 2\n\nc:\n  skip\n",
    # races that rest on a dep other than m_g: t2's `pos ran o` passes on
    # an endO that reaches it over a mutex a (below: over m_g) hand-off
    "once-handoff": ONCE_HANDOFF,
    "once-handoff-no-mutex": "global g\nglobal h\nonce o\n\nmain:\n  initO o\n"
                             "  create t1 as e1\n  create t2 as e2\n  h = 1\n\nt1:\n"
                             "  once o\n    skip\n  end\n  x = g\n\nt2:\n  y = g\n"
                             "  pos ran o\n  h = 2\n",
}
HANDOFFS = ("once-handoff", "once-handoff-no-mutex")
CORPUS = sorted(p.parent.name for p in CORPUS_DIR.glob("*/program.rlp"))
INPUTS = [
    pytest.param(name, bounds, id=name + ("" if bounds is None else "@{}/{}".format(*bounds)))
    for name, bounds in (
        [(name, None) for name in CORPUS]
        + [(name, bounds) for bounds in ((6, 2), (12, 3)) for name in CORPUS]
        + [(name, (60, 5)) for name in GENERATED]
        # the enumerator's default bounds race; 6/2 cuts before the race
        + [(name, bounds) for name in HANDOFFS for bounds in ((40, 4), (6, 2))]
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

    for pom in got.pomsets:  # acyclic, each event after its program-order predecessor
        placed = set()
        for e in reference.causal_order(pom.events, pom.deps):
            assert reference.po_pred(pom, e) in placed | {None}
            placed.add(e)


def observing_steps(program, ts):
    """Each observing edge, trace ``t0`` at its source and trace ``t1``
    whose top it may observe, with the step the search recorded (or None)
    and the reference merge on frozensets (or None)."""
    index = ts.step_index()
    as_sets = {t: reference.Trace(t.events, t.deps, t.top, t.history) for t in ts.traces}
    for edge in program.all_edges():
        a = edge.action
        if not a.is_observing:
            continue
        steps = index.get(edge, {})
        for t0 in ts.traces:
            if t0.ego_node() != edge.source:
                continue
            for t1 in ts.traces:
                if t1.top.action is None or t1.top.action.obs_key() not in a.observed_keys():
                    continue
                want = reference.step_observing(program, edge, as_sets[t0], as_sets[t1])
                yield edge, t0, t1, steps.get((t0, t1)), want


@pytest.mark.parametrize("name,bounds", [pytest.param(name, None, id=name) for name in CORPUS]
                         + [pytest.param(name, (60, 5), id=name) for name in GENERATED])
def test_observing_steps_match_reference(name, bounds):
    """On an exhaustive run the search records a step at every observing
    edge from every pair of traces exactly when the frozenset merge takes
    it, and the step makes the same trace."""
    program, (depth, width) = _input(name, bounds)
    ts = enumerate_traces(program, depth=depth, width=width)
    assert not ts.truncated
    merged = 0
    for _, _, _, got, want in observing_steps(program, ts):
        assert (got and reference.content(got)) == (want and reference.content(want))
        merged += got is not None
    assert merged == _recorded_merges(ts)
    assert merged or name in ("empty_main", "guard_without_once", "unlock_unheld_stuck")


def _recorded_merges(ts) -> int:
    """The steps the search recorded at observing edges, so that a test
    can tell that it met every one of them."""
    return sum(len(steps) for edge, steps in ts.step_index().items()
               if edge.action.is_observing)


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
        ts = oracle._explore(program, 60, 5, reduce=reduce)
        assert not ts.truncated and len(ts.pomsets) == 144
    assert 3 * calls[True] <= calls[False]


def test_handoff_races_rest_on_the_hand_off():
    """One race each at the default bounds, on the write t2 makes past its
    `pos ran o`; the 6/2 cut stops before it."""
    for name in HANDOFFS:
        program, _ = _input(name, None)
        (race,) = find_racy_pairs(enumerate_traces(program))
        assert race.site_b[0].startswith("t2.")
        assert not find_racy_pairs(enumerate_traces(program, 6, 2))


# Explicit-edge form, so that a create edge sits in a loop: main and q each
# create their child either at once or after a lock and unlock.  q's lock c
# merges a trace where x came first (q locked a after x's unlock a and then
# created y) with one where y came first (main locked b after y's unlock b
# and then created x).  Each trace holds both starts, each with a create dep
# the other lacks, and the union is cyclic: x's start, x's unlock a, q's
# lock a, y's start, y's unlock b, main's lock b, x's start.
CREATE_LOOPS = """\
mutex a
mutex b
mutex c
mutex d

main @ s0:
  s0: init a -> s1
  s1: init b -> s2
  s2: init c -> s3
  s3: init d -> s4
  s4: create q as cq -> n
  n: create x as cx -> done
  n: lock b -> n1
  n1: unlock b -> n

q @ q0:
  q0: skip -> qn
  qn: create y as cy -> q1
  qn: lock a -> q2
  q2: unlock a -> qn
  q1: lock d -> q3
  q3: lock c -> q4

x @ x0:
  x0: lock a -> x1
  x1: unlock a -> x2
  x2: lock c -> x3
  x3: unlock c -> x4

y @ y0:
  y0: lock b -> y1
  y1: unlock b -> y2
  y2: lock d -> y3
  y3: unlock d -> y4
"""


def _needed_actions(t) -> int:
    """The actions a run to ``t`` takes: its events but the starts, and
    the create event that follows the source of each of its create deps."""
    slots = {(e.instance, e.index) for e in t.events if e.edge is not None}
    slots |= {(d.src.instance, d.src.index + 1) for d in t.deps if d.kind == "create"}
    return len(slots)


def test_truncated_steps_agree_with_reference():
    """A cut run lacks steps but records no wrong one.  Every step recorded
    at an observing edge is the frozenset merge of its traces, and every
    merge the search did not record takes more actions to reach than the
    depth bound allows.  The frozenset merge refuses each union that would
    give a thread start two create deps, one from each trace (this program
    has such unions)."""
    program = parse_program(CREATE_LOOPS)
    ts = enumerate_traces(program, depth=17, width=4)
    assert ts.truncated
    two_creates = missing = merged = 0
    for _, t0, t1, got, want in observing_steps(program, ts):
        if got is not None:
            merged += 1
            assert want is not None and reference.content(got) == reference.content(want)
        elif want is not None:
            missing += 1
            assert _needed_actions(want) > ts.depth, want
        starts = [d.dst for d in t0.deps | t1.deps if d.kind == "create"]
        if len(set(starts)) < len(starts):
            two_creates += 1
            assert want is None
    assert merged == _recorded_merges(ts)
    assert two_creates > 0 and missing > 0
