"""Local traces and pomsets are bitmasks over one event table per trace
set: recording the traces builds no event or dep set, each trace but
main's start records the step that made it from earlier traces, the
trace order does not depend on the hash seed, and the equivalence suite
reads the steps the search recorded."""

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
from racedigest.oracle import enumerate_traces

from perfbench.gen import interleave_program
from tests import reference_oracle as reference
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
    assert len(ts.traces) == 1565
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
        print(*trace(t), t.before and trace(t.before), t.observed and trace(t.observed))
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
    assert outputs.pop().count("\n") == 32 + 1565


@pytest.mark.parametrize("program", [
    lambda: corpus_program("prog1_running_example"),
    interleave_3x2,
    # two skip edges leave one node of x: equal actions, two steps
    lambda: instrument_atomicity(parse_program(SMALL_PROGRAMS["fork-seen-twice"])),
], ids=["prog1", "interleave-3x2", "fork-seen-twice"])
def test_each_trace_is_made_by_one_step(program):
    """Main's start comes first and no step makes it; every other trace
    records a step from traces that come before it."""
    ts = enumerate_traces(program(), 60, 5)
    start = ts.traces[0]
    assert start.ego == MAIN and start.top.index == 0
    assert start.before is None and start.observed is None
    position = {id(t): k for k, t in enumerate(ts.traces)}
    for k, t in enumerate(ts.traces[1:], 1):
        assert position[id(t.before)] < k
        assert t.observed is None or position[id(t.observed)] < k


def bidirectionally_compatible_by_reference(ts, glob, site_a, site_b) -> bool:
    """``oracle.bidirectionally_compatible`` by its definition: each run of
    an access sequence is taken with the reference steps on frozensets,
    from every pair of traces at the sequence's start and every trace
    ending in an unlock/init of ``m_g``."""
    seq_a = access_sequence(ts.program, site_a)
    seq_b = access_sequence(ts.program, site_b)
    mg = atomicity_mutex(glob)
    as_sets = {t: reference.Trace(t.events, t.deps, t.top, t.history) for t in ts.traces}
    starters_a = [as_sets[t] for t in ts.traces if t.ego_node() == seq_a[0].source]
    starters_b = [as_sets[t] for t in ts.traces if t.ego_node() == seq_b[0].source]
    landings = [as_sets[t] for t in ts.traces if t.top.action is not None
                and t.top.action.obs_key() in (("unlock", mg), ("init", mg))]

    def run(seq, t0, t1):
        lock_e, acc_e, unl_e = seq
        r = reference.step_observing(ts.program, lock_e, t0, t1)
        if r is None:
            return None
        r = reference.step_local(acc_e, r)
        if r is None:
            return None
        return reference.step_local(unl_e, r)

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


def test_equivalence_reads_the_recorded_steps(monkeypatch):
    """On the 85 corpus pairs the verdicts are those of the runs taken with
    the reference steps, and no trace is made after the search: the one
    step index of each trace set serves every pair."""
    cases = load_corpus(CORPUS_DIR)
    want = {(case.name, *key): bidirectionally_compatible_by_reference(case.traces(), *key)
            for case in cases for key in _write_pairs(case.program)}
    assert len(want) == 85 and any(want.values()) and not all(want.values())

    index = {case.name: case.traces().step_index() for case in cases}

    def made(*args):
        raise AssertionError("a trace was made after the search")

    monkeypatch.setattr(oracle, "_extend", made)
    monkeypatch.setattr(oracle, "spawn", made)
    got = {(case.name, *key): oracle.bidirectionally_compatible(case.traces(), *key[1:])
           for case in cases for key in _write_pairs(case.program)}
    assert got == want
    assert all(case.traces().step_index() is index[case.name] for case in cases)
    assert run_equivalence_suite(cases).passed


def test_equivalence_refuses_a_truncated_trace_set():
    # a cut run lacks the steps past its bounds
    p = instrument_atomicity(parse_program("global g\n\nmain:\n  skip\n  label T\n"
                                           "  g = 1\n  goto T\n"))
    ts = enumerate_traces(p, depth=10, width=2)
    assert ts.truncated
    ((site, _, _),) = access_sites(p)
    with pytest.raises(ValueError, match="exhaustive trace set"):
        oracle.bidirectionally_compatible(ts, site, site)


def test_equal_content_in_two_tables_is_two_traces(prog1):
    a, b = enumerate_traces(prog1), enumerate_traces(prog1)
    assert a.traces[0].events == b.traces[0].events and a.traces[0] != b.traces[0]
