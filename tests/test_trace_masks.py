"""Local traces and pomsets are bitmasks over one event table per trace
set: recording the traces and steps builds no event or dep set, each
trace but main's start is made by exactly one recorded step, the trace
and step order does not depend on the hash seed, and the equivalence
suite takes each access-sequence run once."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from racedigest import oracle
from racedigest.conformance import load_corpus, run_equivalence_suite
from racedigest.dsl import parse_program
from racedigest.model import (MAIN, WRITE, access_sequence, access_sites, atomicity_mutex,
                              instrument_atomicity)
from racedigest.oracle import enumerate_traces, trace_step_local, trace_step_observing

from perfbench.gen import interleave_program
from tests.conftest import CORPUS_DIR, corpus_program
from tests.test_oracle_reference import GENERATED as SMALL_PROGRAMS

ROOT = Path(__file__).resolve().parent.parent


def interleave_3x2():
    return instrument_atomicity(parse_program(interleave_program(3, 2, 0)))


def test_traces_and_steps_build_no_event_set(monkeypatch):
    built = []
    members = oracle._members

    def counting(mask, items):
        built.append(mask)
        return members(mask, items)

    monkeypatch.setattr(oracle, "_members", counting)
    ts = enumerate_traces(interleave_3x2())
    assert len(ts.traces) == 1565 and len(ts.steps()) == 1564
    assert built == []
    # the sets are built through the counted accessor when read
    assert len(ts.traces[-1].events) > 1 and built


_TRACE_ORDER = """
import sys
sys.path.insert(0, sys.argv[1])
from racedigest.dsl import parse_program
from racedigest.model import instrument_atomicity
from racedigest.oracle import enumerate_traces
from perfbench.gen import interleave_program
from tests.conftest import corpus_program


def trace(t):
    return t.top.describe(), sorted(e.describe() for e in t.events), t.dep_mask.bit_count()


for p in (corpus_program("prog1_running_example"),
          instrument_atomicity(parse_program(interleave_program(3, 2, 0)))):
    ts = enumerate_traces(p, 60, 5)
    for t in ts.traces:
        print(*trace(t))
    for s in ts.steps():
        print(s.event.describe(), trace(s.before), s.observed and trace(s.observed),
              s.after.top.describe())
"""


def test_trace_order_does_not_depend_on_the_hash_seed():
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        outputs.add(subprocess.run(
            [sys.executable, "-c", _TRACE_ORDER, str(ROOT)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout)
    assert len(outputs) == 1
    assert outputs.pop().count("\n") == 32 + 31 + 1565 + 1564


@pytest.mark.parametrize("program", [
    lambda: corpus_program("prog1_running_example"),
    interleave_3x2,
    # two skip edges leave one node of x: equal actions, two steps
    lambda: instrument_atomicity(parse_program(SMALL_PROGRAMS["fork-seen-twice"])),
], ids=["prog1", "interleave-3x2", "fork-seen-twice"])
def test_each_trace_is_made_by_one_step(program):
    """Main's start comes first and no step makes it; every other trace is
    the ``after`` of exactly one step, in the same order."""
    ts = enumerate_traces(program(), 60, 5)
    steps = ts.steps()
    assert len(steps) == len(ts.traces) - 1
    start = ts.traces[0]
    assert start.ego == MAIN and start.top.index == 0
    assert [s.after for s in steps] == list(ts.traces[1:])
    assert all(s.event == s.after.top for s in steps)


def bidirectionally_compatible_unmemoized(ts, glob, site_a, site_b) -> bool:
    """``oracle.bidirectionally_compatible`` as it stood before each run
    was kept on the trace set."""
    seq_a = access_sequence(ts.program, site_a)
    seq_b = access_sequence(ts.program, site_b)
    mg = atomicity_mutex(glob)
    starters_a = [t for t in ts.traces if t.ego_node() == seq_a[0].source]
    starters_b = [t for t in ts.traces if t.ego_node() == seq_b[0].source]
    landings = [t for t in ts.traces if t.top.action is not None
                and t.top.action.obs_key() in (("unlock", mg), ("init", mg))]

    def run(seq, t0, t1):
        lock_e, acc_e, unl_e = seq
        r = trace_step_observing(lock_e, t0, t1)
        if r is None:
            return None
        r = trace_step_local(acc_e, r)
        if r is None:
            return None
        return trace_step_local(unl_e, r)

    for tl in landings:
        for ta in starters_a:
            a_first = run(seq_a, ta, tl)
            if a_first is None:
                continue
            for tb in starters_b:
                if run(seq_b, tb, a_first) is None:
                    continue
                b_first = run(seq_b, tb, tl)
                if b_first is not None and run(seq_a, ta, b_first) is not None:
                    return True
    return False


def _write_pairs(p):
    sites = access_sites(p)
    for i, (site_a, glob_a, type_a) in enumerate(sites):
        for site_b, glob_b, type_b in sites[i:]:
            if glob_a == glob_b and WRITE in (type_a, type_b):
                yield glob_a, site_a, site_b


def test_equivalence_runs_each_sequence_once(monkeypatch):
    """One observing step per distinct (lock edge, t0, t1) on the corpus,
    with the verdicts of the run that takes every step it meets."""
    verdicts, distinct, unmemoized = {}, set(), 0
    step = oracle.trace_step_observing

    def recording(edge, t0, t1):
        nonlocal unmemoized
        unmemoized += 1
        distinct.add((edge, t0, t1))
        return step(edge, t0, t1)

    monkeypatch.setattr(sys.modules[__name__], "trace_step_observing", recording)
    for case in load_corpus(CORPUS_DIR):
        for key in _write_pairs(case.program):
            verdicts[(case.name, *key)] = bidirectionally_compatible_unmemoized(
                case.traces(), *key)
    assert (unmemoized, len(distinct), len(verdicts)) == (819, 395, 85)

    calls = []
    monkeypatch.setattr(oracle, "trace_step_observing",
                        lambda *args: calls.append(args) or step(*args))
    cases = load_corpus(CORPUS_DIR)
    for _ in range(2):  # the second pass reads every run off the trace sets
        got = {(case.name, *key): oracle.bidirectionally_compatible(
                   case.traces(), *key)
               for case in cases for key in _write_pairs(case.program)}
        assert got == verdicts
        assert len(calls) == len(set(calls)) == 395
    assert run_equivalence_suite(cases).passed and len(calls) == 395


def test_merge_of_two_trace_sets_is_refused(prog1):
    a, b = enumerate_traces(prog1), enumerate_traces(prog1)
    (lock_edge,) = [e for e in prog1.prototypes["t1"].edges
                    if e.action.kind == "lock" and e.action.target == "a"]
    t0 = next(t for t in a.traces if t.ego_node() == lock_edge.source)
    with pytest.raises(ValueError, match="two trace sets"):
        trace_step_observing(lock_edge, t0, b.traces[0])
    # equal content in two tables is two traces
    assert a.traces[0].events == b.traces[0].events and a.traces[0] != b.traces[0]
