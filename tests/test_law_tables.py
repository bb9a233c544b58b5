"""The law harness reads tables built once per trace set.  Each is checked
against what it stands for: a recorded trace's history against the
history its events and deps define; the product's values
(``LawTables.values``), one per (ego, history) of the traces, against its
abstraction, and its observing steps and verdicts, read off its
components' tables, against its transfer and predicate; the recorded
steps against a walk over the
events of the reference enumerator's pomsets; and the grouped steps the
harness replays (``TraceSet.law_steps``) against the traces."""

from __future__ import annotations

import pytest

from racedigest import oracle
from racedigest.digest import (LawTables, ProductDigest, check_access_stability,
                               check_admissibility, check_mhp_commutativity,
                               check_view_exactness)
from racedigest.digests import CANONICAL_ORDER, JoinDigest, ThreadIdDigest, build_digests
from racedigest.dsl import parse_program
from racedigest.model import MAIN, instrument_atomicity
from racedigest.oracle import enumerate_traces

from tests import reference_oracle as reference
from tests.conftest import CORPUS_DIR, GENERATED

CORPUS_NAMES = sorted(p.name for p in CORPUS_DIR.iterdir() if (p / "program.rlp").exists())


@pytest.fixture(scope="module")
def trace_sets(corpus_cases):
    out = {case.name: case.traces() for case in corpus_cases}
    for name, src in GENERATED.items():
        out[name] = enumerate_traces(instrument_atomicity(parse_program(src)))
    return out


@pytest.mark.parametrize("name", [*CORPUS_NAMES, *GENERATED])
def test_index_histories_match_the_per_trace_fold(trace_sets, name):
    """The history the search carried to each trace is the one its events
    and deps define."""
    ts = trace_sets[name]
    assert not ts.truncated and ts.traces
    for t in ts.traces:
        assert t.history == reference.history(t.events, t.deps, t.top), t.top.describe()


@pytest.mark.parametrize("name", [*CORPUS_NAMES, *GENERATED])
def test_product_table_is_the_product_abstraction(trace_sets, name):
    """Each distinct (ego, history) of the traces is a key, in first-seen
    order, and the product's value there, read off its components' tables,
    is the one ``ProductDigest.abstract`` gives."""
    ts = trace_sets[name]
    keys = ts.law_steps().keys
    assert keys == list(dict.fromkeys((t.ego, t.history) for t in ts.traces))
    product = ProductDigest(build_digests(CANONICAL_ORDER))
    laws = LawTables(product, ts)
    assert [p.digest for p in laws.parts] == list(product.components)
    assert laws.values == [product.abstract(*key) for key in keys]


@pytest.mark.parametrize("name", [*CORPUS_NAMES, *GENERATED])
def test_product_tables_match_the_product_transfer(trace_sets, name):
    """The product's rows and verdicts are read off its components'
    tables, not made by its own ``step_observing`` and ``mhp``; here each
    entry is checked against those, and each distinct step is one object
    per table."""
    ts = trace_sets[name]
    product = ProductDigest(build_digests(CANONICAL_ORDER))
    laws = LawTables(product, ts)
    realized = laws.realized
    observing = {e.action for e in ts.program.all_edges() if e.action.is_observing}
    for act in observing:
        rows = laws.rows(act)
        for a0, row in zip(realized, rows):
            assert row == [product.step_observing(act, a0, a1) for a1 in realized], act
        steps = [r for row in rows for r in row]
        assert len({id(r) for r in steps}) == len(set(steps)), act
    for glob in sorted(ts.program.globals):
        assert laws.verdicts(glob) == [[product.mhp(glob, a, b) for b in realized]
                                       for a in realized], glob


@pytest.mark.parametrize("name", ["deep_paths_all_race", "join_chain", "nested_create"])
@pytest.mark.parametrize("digest,overflow", [(ThreadIdDigest(cap=1), "tid:overflow"),
                                             (JoinDigest(cap=1), "tid:overflowj[]")],
                         ids=["tid", "join"])
def test_tid_cap_one_realizes_the_overflow_element(trace_sets, name, digest, overflow):
    """At cap 1 a grandchild's id is the overflow element: the laws hold
    with it realized beside ids that fit the cap."""
    laws = LawTables(digest, trace_sets[name])
    for check in (check_admissibility, check_access_stability, check_mhp_commutativity,
                  check_view_exactness):
        report = check(laws)
        assert report.passed and report.checks, check.__name__
    realized = [digest.format_elem(e) for e in laws.realized]
    assert overflow in realized
    assert any(r.startswith("tid!") for r in realized)


def _walked_steps(program, ts) -> set[tuple]:
    """The steps as a walk over the events of each pomset of the reference
    enumerator finds them, as the contents of (event, before, observed,
    after), each trace a reference closure."""
    want = reference.enumerate_traces(program, depth=ts.depth, width=ts.width)
    content = reference.content
    seen = set()
    for pom in want.pomsets:
        anc = reference.pomset_ancestors(pom)

        def trace(e):
            return content(reference.closure(pom, e, anc))

        for e in pom.events:
            if e.edge is None and e.instance == MAIN:
                continue
            dep = reference.dep_to(pom, e)
            if e.edge is None:
                seen.add((e, trace(dep.src), None, trace(e)))
            else:
                observed = trace(dep.src) if e.action.is_observing else None
                seen.add((e, trace(reference.po_pred(pom, e)), observed, trace(e)))
    return seen


@pytest.mark.parametrize("name", [*CORPUS_NAMES, *GENERATED])
def test_step_table_matches_a_walk_over_the_pomsets(trace_sets, name):
    ts = trace_sets[name]
    made = ts.traces[1:]
    content = reference.content
    got = {(t.top, content(t.before), t.observed and content(t.observed), content(t))
           for t in made}
    assert len(got) == len(made)
    assert got == _walked_steps(ts.program, ts)
    # the steps read the trace set's own trace objects
    own = {id(t) for t in ts.traces}
    for t in made:
        assert id(t.before) in own
        assert t.observed is None or id(t.observed) in own


@pytest.mark.parametrize("name", [*CORPUS_NAMES, *GENERATED])
def test_law_steps_hold_every_step_once(trace_sets, name):
    """Every trace but main's start is a member of one group, in trace
    order, under the keys of its own step and (ego, history)."""
    ts = trace_sets[name]
    table = ts.law_steps()
    assert table.keys == list(dict.fromkeys((t.ego, t.history) for t in ts.traces))
    index = {key: i for i, key in enumerate(table.keys)}

    def key(t):
        return None if t is None else index[t.ego, t.history]

    positions = []
    for (edge, before, observed), made in table.steps.items():
        for after, members in made.items():
            for t in map(ts.traces.__getitem__, members):
                assert (t.top.edge, key(t.before), key(t.observed), key(t)) == (
                    edge, before, observed, after)
            positions += members
    for (ce, before), made in table.starts.items():
        for after, members in made.items():
            for t in map(ts.traces.__getitem__, members):
                assert t.top.edge is None and t.ego[-1][0] == ce
                assert (key(t.before), t.observed, key(t)) == (before, None, after)
            positions += members
    assert sorted(positions) == list(range(1, len(ts.traces)))
    assert all(members == sorted(members) for groups in (table.steps, table.starts)
               for made in groups.values() for members in made.values())


def test_law_tables_share_one_step_table(monkeypatch, prog1):
    built = []

    class Counted(oracle.LawSteps):
        def __init__(self, ts):
            built.append(ts)
            super().__init__(ts)

    monkeypatch.setattr(oracle, "LawSteps", Counted)
    ts = enumerate_traces(prog1)
    components = build_digests(CANONICAL_ORDER)
    for d in (components[0], ProductDigest(components)):
        assert check_admissibility(LawTables(d, ts)).passed
    assert built == [ts]
