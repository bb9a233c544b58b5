"""The once and join abstraction maps, which read ``LocalTrace.history``,
against the per-trace walks they replaced."""

from __future__ import annotations

import pytest

from racedigest.digests import JoinDigest, OnceDigest
from racedigest.dsl import parse_program
from racedigest.model import instrument_atomicity
from racedigest.oracle import enumerate_traces

from tests import reference_digests as reference
from tests.conftest import GENERATED

# t2 sees t1's endO o only through the mutex a, which carries no completions
HANDOFF = """
global g
mutex a
once o

main:
  init a
  initO o
  create t1 as e1
  create t2 as e2

t1:
  once o
    g = 1
  end
  lock a
  unlock a

t2:
  lock a
  unlock a
  x = g
"""

# main may take e1 twice before joining: then the joined child is the second
TWICE = """
main:
  skip
  label L
  create t1 as e1
  goto L J
  label J
  join e1

t1:
  create t3 as e3
  join e3

t3:
  skip
"""

HAND_WRITTEN = {"mutex-handoff": HANDOFF, "create-twice-then-join": TWICE}


def _check_maps(traces) -> None:
    once = OnceDigest()
    for cap in (8, 1, 0):
        join = JoinDigest(cap)
        for t in traces:
            assert once.abstract(t.ego, t.history)[1] == reference.completed_at(t)
            assert join.abstract(t.ego, t.history).joined == reference.joined_of(t, cap)


def test_once_and_join_maps_match_reference_on_corpus(corpus_cases):
    for case in corpus_cases:
        _check_maps(case.traces().traces)


@pytest.mark.parametrize("name", [*GENERATED, *HAND_WRITTEN])
def test_once_and_join_maps_match_reference(name):
    src = {**GENERATED, **HAND_WRITTEN}[name]
    _check_maps(enumerate_traces(instrument_atomicity(parse_program(src))).traces)


def test_hand_written_programs_reach_the_cases():
    # the hand-off program has a trace that has seen an endO but knows no
    # completion; the twice program joins a second child and a first one
    handoff = enumerate_traces(instrument_atomicity(parse_program(HANDOFF))).traces
    assert any(("endO", "o") in t.history.seen and not OnceDigest().abstract(t.ego, t.history)[1]
               and t.ego == (("e2", 0),) for t in handoff)
    twice = enumerate_traces(instrument_atomicity(parse_program(TWICE))).traces
    joined = {frozenset(JoinDigest().abstract(t.ego, t.history).joined) for t in twice
              if t.top.action is not None and t.top.action.kind == "join" and t.ego == ()}
    assert frozenset() in joined and frozenset({("e1",), ("e1", "e3")}) in joined
