"""The law harness reads tables built once per trace set.  Each is checked
against what it stands for: a recorded trace's history against the
history its events and deps define; the product's abstraction table
(``LawTables.alpha``), keyed on the (ego, history) of the traces, against
its components' tables; and the step table against a walk over the
events of the reference enumerator's pomsets."""

from __future__ import annotations

import pytest

from racedigest.digest import LawTables, ProductDigest
from racedigest.digests import CANONICAL_ORDER, build_digests
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
    order, and the product's value there is the tuple of its components'."""
    ts = trace_sets[name]
    components = build_digests(CANONICAL_ORDER)
    table = LawTables(ProductDigest(components), ts).alpha
    assert list(table) == list(dict.fromkeys((t.ego, t.history) for t in ts.traces))
    tables = [LawTables(c, ts).alpha for c in components]
    for key, value in table.items():
        assert value == tuple(c[key] for c in tables), key[0]


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
    steps = ts.steps()
    assert steps is ts.steps()
    content = reference.content
    got = {(s.event, content(s.before), s.observed and content(s.observed), content(s.after))
           for s in steps}
    assert len(got) == len(steps)
    assert got == _walked_steps(ts.program, ts)
    # the table holds the trace set's own trace objects
    own = {id(t) for t in ts.traces}
    for s in steps:
        assert {id(s.before), id(s.after)} <= own
        assert s.observed is None or id(s.observed) in own
