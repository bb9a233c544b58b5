"""The law harness reads tables built once per trace set.  Each is checked
against what it stands for: a closure's history, read off its pomset's
causal index, against the history its events and deps define; the
product's abstraction table, assembled from its components' tables,
against ``ProductDigest.abstract_trace``; and the step table against a
walk over the pomset events."""

from __future__ import annotations

import pytest

from racedigest.digest import ProductDigest, abstraction_table, product_table
from racedigest.digests import CANONICAL_ORDER, build_digests
from racedigest.dsl import parse_program
from racedigest.model import MAIN, instrument_atomicity
from racedigest.oracle import enumerate_traces

from tests.conftest import CORPUS_DIR, GENERATED
from tests.reference_oracle import dep_to, history, po_pred, sorted_events

CORPUS_NAMES = sorted(p.name for p in CORPUS_DIR.iterdir() if (p / "program.rlp").exists())


@pytest.fixture(scope="module")
def trace_sets(corpus_cases):
    out = {case.name: case.traces() for case in corpus_cases}
    for name, src in GENERATED.items():
        out[name] = enumerate_traces(instrument_atomicity(parse_program(src)))
    return out


@pytest.mark.parametrize("name", [*CORPUS_NAMES, *GENERATED])
def test_index_histories_match_the_per_trace_fold(trace_sets, name):
    ts = trace_sets[name]
    assert not ts.truncated
    closures = 0
    for pom in ts.sorted_pomsets():
        idx = pom.causality()
        for i in range(len(idx.events)):
            t = idx.closure(i)
            assert t.history == history(t.events, t.deps, t.top), t.top.describe()
            closures += 1
    assert closures >= len(ts.traces) > 0


@pytest.mark.parametrize("name", [*CORPUS_NAMES, *GENERATED])
def test_product_table_is_the_product_abstraction(trace_sets, name):
    ts = trace_sets[name]
    components = build_digests(CANONICAL_ORDER)
    product = ProductDigest(components)
    table = product_table(product, [abstraction_table(c, ts) for c in components])
    assert list(table) == list(ts.traces)
    for t in ts.traces:
        assert table[t] == product.abstract_trace(t), t.top.describe()


def _walked_steps(ts) -> list[tuple]:
    """The steps as a walk over each pomset's events finds them, first of
    each key, as (event, before, observed, after)."""
    seen: dict[tuple, tuple] = {}
    for pom in ts.sorted_pomsets():
        for e in sorted_events(pom):
            if e.edge is None and e.instance == MAIN:
                continue
            dep = dep_to(pom, e)
            if e.edge is None:
                step = (e, pom.closure(dep.src), None, pom.closure(e))
                key = ("new", step[1], e.instance)
            else:
                before = pom.closure(po_pred(pom, e))
                observed = pom.closure(dep.src) if e.action.is_observing else None
                step = (e, before, observed, pom.closure(e))
                key = (e.action, before, observed)
            seen.setdefault(key, step)
    return list(seen.values())


@pytest.mark.parametrize("name", [*CORPUS_NAMES, *GENERATED])
def test_step_table_matches_a_walk_over_the_pomsets(trace_sets, name):
    ts = trace_sets[name]
    steps = ts.steps()
    assert steps is ts.steps()
    assert [(s.event, s.before, s.observed, s.after) for s in steps] == _walked_steps(ts)
    # the table holds the trace set's own trace objects
    own = {id(t) for t in ts.traces}
    for s in steps:
        assert {id(s.before), id(s.after)} <= own
        assert s.observed is None or id(s.observed) in own
