"""The law harness reads tables built once per trace set.  Each is checked
against what it stands for: a recorded trace's history against the
history its events and deps define; a digest's values
(``LawTables.values``), one per (ego, history) of the traces, against its
abstraction; the product's transfer and predicate against its
components', the component-wise facts its laws follow from; the
recorded steps against a walk over the events of the reference
enumerator's pomsets; and the grouped steps the harness replays
(``TraceSet.law_steps``) against the traces."""

from __future__ import annotations

import itertools

import pytest

from racedigest import oracle
from racedigest.digest import (LawTables, check_access_stability, check_admissibility,
                               check_mhp_commutativity, check_view_exactness)
from racedigest.digests import (CANONICAL_ORDER, JoinDigest, ProductDigest, ThreadIdDigest,
                                build_digests)
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
    order, and the product's value there is the tuple of its components'
    ``LawTables.values``."""
    ts = trace_sets[name]
    keys = ts.law_steps().keys
    assert keys == list(dict.fromkeys((t.ego, t.history) for t in ts.traces))
    product = ProductDigest(build_digests(CANONICAL_ORDER))
    parts = [LawTables(c, ts) for c in product.components]
    assert [product.abstract(*key) for key in keys] == list(zip(*(p.values for p in parts)))


@pytest.mark.parametrize("name", [*CORPUS_NAMES, *GENERATED])
def test_product_tables_match_the_product_transfer(trace_sets, name):
    """The product is component-wise on its realized values, which is why
    its laws follow from its components': its initial value and each view
    are the tuples of theirs, each observing step is the tuple of theirs
    (None at a None), and each verdict is the meet of theirs."""
    ts = trace_sets[name]
    product = ProductDigest(build_digests(CANONICAL_ORDER))
    components = product.components
    assert product.init_digest() == tuple(c.init_digest() for c in components)
    values = zip(*(LawTables(c, ts).values for c in components))
    realized = sorted(set(values) | {product.init_digest()}, key=product.format_elem)
    pairs = list(itertools.product(realized, repeat=2))
    observing = {e.action for e in ts.program.all_edges() if e.action.is_observing}
    for act in observing:
        for a0, a1 in pairs:
            steps = [c.step_observing(act, x, y) for c, x, y in zip(components, a0, a1)]
            want = None if None in steps else tuple(steps)
            assert product.step_observing(act, a0, a1) == want, act
        for a1 in realized:
            assert product.observed_view(act, a1) == tuple(
                c.observed_view(act, e) for c, e in zip(components, a1)), act
    for glob in sorted(ts.program.globals):
        for a, b in pairs:
            assert product.mhp(glob, a, b) is all(
                c.mhp(glob, x, y) for c, x, y in zip(components, a, b)), glob


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
    for d in build_digests(CANONICAL_ORDER)[:2]:
        assert check_admissibility(LawTables(d, ts)).passed
    assert built == [ts]
