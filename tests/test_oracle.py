from __future__ import annotations

import gc

import pytest

from racedigest import oracle
from racedigest.dsl import parse_program
from racedigest.model import MAIN, access_sites, edge_path, instrument_atomicity
from racedigest.oracle import (
    DepEdge,
    bidirectionally_compatible,
    enumerate_traces,
    find_racy_pairs,
    spawn,
    trace_step_local,
    trace_step_observing,
)

from tests.conftest import GENERATED
from tests.reference_oracle import (
    Trace,
    causal_order,
    history,
    pomset_ancestors,
    step_creator,
    validate_local_trace,
)


def load(src: str):
    return instrument_atomicity(parse_program(src))


def traces_with_top(ts, kind: str, target: str | None = None, instance=None):
    out = []
    for t in ts.traces:
        a = t.top.action
        if a is None or a.kind != kind:
            continue
        if target is not None and a.target != target:
            continue
        if instance is not None and t.ego != instance:
            continue
        out.append(t)
    return out


def has_action(t, kind: str, target: str) -> bool:
    return any(e.action is not None and e.action.obs_key() == (kind, target) for e in t.events)


def traces_at_node(ts, node: str):
    return [t for t in ts.traces if t.ego_node() == node]


def test_every_trace_is_well_formed(prog1_traces):
    for t in prog1_traces.traces:
        validate_local_trace(t)


def test_observable_feeding_two_observers_is_rejected(prog1_traces):
    # main[1] init m_g already feeds main[3] lock m_g, and main[8] lock m_g
    # already has its mutex dep from main[5] unlock m_g
    t = next(
        t for t in prog1_traces.traces
        if {"main[1] init m_g", "main[8] lock m_g"} <= {e.describe() for e in t.events}
    )
    by_name = {e.describe(): e for e in t.events}
    extra = DepEdge("mutex", "m_g", by_name["main[1] init m_g"], by_name["main[8] lock m_g"])
    assert extra not in t.deps
    validate_local_trace(t)
    with pytest.raises(ValueError, match="two observers"):
        validate_local_trace(Trace(t.events, t.deps | {extra}, t.top, t.history))


def test_local_step_advances_access(prog1, prog1_traces):
    (site, _, _) = access_sites(prog1)[0]
    (acc_edge,) = prog1.edges_from(site)
    for t in traces_at_node(prog1_traces, site):
        out = trace_step_local(acc_edge, t)
        assert out is not None
        assert out.ego_node() == acc_edge.target
        validate_local_trace(out)


def test_local_step_wrong_node_is_empty(prog1, prog1_traces):
    (site, _, _) = access_sites(prog1)[0]
    (acc_edge,) = prog1.edges_from(site)
    t = next(t for t in prog1_traces.traces if t.ego_node() != site)
    assert trace_step_local(acc_edge, t) is None


def test_pos_ran_without_endo_is_empty():
    p = load("global g\nonce o\n\nmain:\n  initO o\n  pos ran o\n  g = 1\n")
    ts = enumerate_traces(p)
    (pos_edge,) = [e for e in p.main().edges if e.action.kind == "pos_ran"]
    for t in traces_at_node(ts, pos_edge.source):
        assert trace_step_local(pos_edge, t) is None
    # the guarded access is dead in every enumerated execution
    for pom in ts.pomsets:
        assert not any(
            e.action is not None and e.action.kind == "write" for e in pom.events
        )


def test_pos_ran_requires_local_knowledge():
    # Another thread completing the once block does not unblock the ego
    # thread's guard: knowledge only flows through synchronization.
    p = load(
        "global g\nonce o\n\nmain:\n  initO o\n  create t1 as e1\n  pos ran o\n  g = 1\n"
        "\nt1:\n  once o\n    skip\n  end\n"
    )
    ts = enumerate_traces(p)
    assert not ts.truncated
    endos = [t for t in ts.traces if ("endO", "o") in t.history.seen]
    assert endos, "t1 does complete the once block"
    for pom in ts.pomsets:
        assert not any(
            e.action is not None and e.action.kind == "write" for e in pom.events
        )


def test_spawn_creates_child_with_extended_path(prog1, prog1_traces):
    (create_edge,) = [e for e in prog1.all_edges() if e.action.kind == "create"]
    t = next(t for t in traces_at_node(prog1_traces, create_edge.source) if t.ego == MAIN)
    child = spawn(prog1, create_edge, t)
    assert child is not None
    assert edge_path(child.ego) == ("e1",)
    assert child.top.index == 0 and child.top.node == prog1.prototypes["t1"].start_node
    validate_local_trace(child)
    # spawning from a node without a create edge yields nothing
    assert spawn(prog1, create_edge, child) is None
    # the creating thread itself advances over the same edge
    creator = step_creator(prog1, create_edge, t)
    assert creator is not None and creator.ego == MAIN
    assert creator.ego_node() == create_edge.target


def test_local_steps_and_spawn_build_no_event_set(monkeypatch, prog1, prog1_traces):
    """They OR their input's masks and carry its history forward
    (``History.after`` and ``History.start``), building no event or dep
    set to fold a history over."""
    traces = prog1_traces.traces

    def build(mask, items):
        raise AssertionError("an event set was built")

    monkeypatch.setattr(oracle, "_members", build)
    made = set()
    for t in traces:
        for edge in prog1.edges_from(t.ego_node()):
            if edge.action.kind == "create":
                out = spawn(prog1, edge, t)
            elif not edge.action.is_observing:
                out = trace_step_local(edge, t)
            else:
                continue
            if out is not None:
                made.add(out.top.action.kind if out.top.action else "start")
    assert {"start", "unlock", "write"} <= made


def test_nested_creation_path_length_two():
    p = load("global g\n\nmain:\n  create p as e1\n\np:\n  create q as e2\n\nq:\n  g = 1\n")
    ts = enumerate_traces(p)
    grandchildren = {t.ego for t in ts.traces if len(t.ego) == 2}
    assert grandchildren == {(("e1", 0), ("e2", 0))}


def test_observing_step_merges_unlock(prog1, prog1_traces):
    # t1's first lock(a) can observe main's unlock(a): the merged trace is
    # exactly the stylized figure trace shape.
    (lock_edge,) = [
        e for e in prog1.prototypes["t1"].edges
        if e.action.kind == "lock" and e.action.target == "a"
    ]
    unlocks = [
        t for t in traces_with_top(prog1_traces, "unlock", "a", instance=MAIN)
    ]
    starters = [t for t in traces_at_node(prog1_traces, lock_edge.source) if t.ego != MAIN]
    merged = None
    for t0 in starters:
        for t1 in unlocks:
            merged = merged or trace_step_observing(lock_edge, t0, t1)
    assert merged is not None
    validate_local_trace(merged)
    assert merged.ego != MAIN
    assert any(d.kind == "mutex" and d.label == "a" for d in merged.deps)


def test_observable_consumed_at_most_once():
    # B relocks a after its own unlock; the init(a) observable is already
    # consumed by B's first lock, so observing it again must fail.
    p = load(
        "mutex a\n\nmain:\n  init a\n  create b as e1\n\n"
        "b:\n  lock a\n  unlock a\n  lock a\n"
    )
    ts = enumerate_traces(p)
    b_edges = sorted(
        (e for e in p.prototypes["b"].edges if e.action.kind == "lock"),
        key=lambda e: e.source,
    )
    init_traces = traces_with_top(ts, "init", "a")
    second_lock = None
    for e in b_edges:
        for t0 in traces_at_node(ts, e.source):
            if t0.ego == MAIN or not has_action(t0, "unlock", "a"):
                continue
            second_lock = (e, t0)
    assert second_lock is not None
    e, t0 = second_lock
    for t1 in init_traces:
        assert trace_step_observing(e, t0, t1) is None
    own_unlock = [t for t in traces_with_top(ts, "unlock", "a") if t.ego == t0.ego]
    assert any(trace_step_observing(e, t0, t1) is not None for t1 in own_unlock)


def test_join_observes_only_matching_exit():
    p = load(
        "global g\n\nmain:\n  create t1 as e1\n  create t2 as e2\n  join e1\n  g = 0\n\n"
        "t1:\n  skip\n\nt2:\n  g = 1\n"
    )
    ts = enumerate_traces(p)
    (join_edge,) = [e for e in p.main().edges if e.action.kind == "join"]
    starters = [t for t in traces_at_node(ts, join_edge.source) if t.ego == MAIN]
    exits_t1 = [t for t in traces_with_top(ts, "exit") if edge_path(t.ego) == ("e1",)]
    exits_t2 = [t for t in traces_with_top(ts, "exit") if edge_path(t.ego) == ("e2",)]
    assert starters and exits_t1 and exits_t2
    assert any(
        trace_step_observing(join_edge, t0, t1) is not None
        for t0 in starters
        for t1 in exits_t1
    )
    for t0 in starters:
        for t1 in exits_t2:
            assert trace_step_observing(join_edge, t0, t1) is None


def test_enumeration_contains_figure_trace(prog1, prog1_traces):
    ts = enumerate_traces(prog1, depth=30, width=2)
    assert not ts.truncated
    figure = [
        t
        for t in ts.traces
        if t.ego != MAIN
        and t.top.action is not None
        and t.top.action.kind == "lock"
        and t.top.action.target == "a"
        and has_action(t, "unlock", "a")
    ]
    assert figure, "t1 locking a after main's unlock must be reachable"


def test_single_thread_traces_totally_ordered():
    p = load("global g\n\nmain:\n  g = 1\n  g = 2\n")
    ts = enumerate_traces(p)
    for pom in ts.pomsets:
        events = causal_order(pom.events, pom.deps)
        anc = pomset_ancestors(pom)
        for i, a in enumerate(events):
            for b in events[i + 1:]:
                assert a in anc[b] or b in anc[a]


def test_empty_main_yields_init_trace():
    p = load("main:\n")
    ts = enumerate_traces(p)
    init = [t for t in ts.traces if t.top.index == 0]
    assert len(init) == 1 and init[0].ego == MAIN


def test_step_determinism(prog1, prog1_traces):
    # local and observing steps return at most one trace and are stable
    (site, _, _) = access_sites(prog1)[0]
    (acc_edge,) = prog1.edges_from(site)
    for t in traces_at_node(prog1_traces, site):
        assert trace_step_local(acc_edge, t) == trace_step_local(acc_edge, t)


def test_truncation_flag_on_infinite_loop():
    p = load("global g\n\nmain:\n  skip\n  label T\n  g = 1\n  goto T\n")
    ts = enumerate_traces(p, depth=10, width=2)
    assert ts.truncated
    assert ts.traces


def test_create_loop_truncated_prefix_shows_self_race():
    p = load("global g\n\nmain:\n  skip\n  label T\n  create w as e\n  goto T\n\nw:\n  g = 1\n")
    ts = enumerate_traces(p, depth=16, width=3)
    assert ts.truncated
    pairs = {(r.glob, r.site_a, r.site_b) for r in find_racy_pairs(ts)}
    assert ("g", ("w.s0", "W"), ("w.s0", "W")) in pairs


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_enumeration_pauses_the_collector(monkeypatch, collecting):
    explore, paused = oracle._explore, []

    def recorded(*args, **kwargs):
        paused.append(gc.isenabled())
        if len(paused) == 3:
            raise RuntimeError("search failed")
        return explore(*args, **kwargs)

    monkeypatch.setattr(oracle, "_explore", recorded)
    # the reduced search gives up at the depth bound, so both searches run
    p = load("global g\n\nmain:\n  skip\n  label T\n  g = 1\n  goto T\n")
    (gc.enable if collecting else gc.disable)()
    try:
        assert enumerate_traces(p, depth=10, width=2).truncated
        assert gc.isenabled() is collecting
        with pytest.raises(RuntimeError):
            enumerate_traces(p, depth=10, width=2)
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    assert paused == [False, False, False]


def test_racy_pairs_prog0(prog0, prog0_traces):
    pairs = {(r.glob, r.site_a, r.site_b) for r in find_racy_pairs(prog0_traces)}
    assert pairs == {("g", ("main.s0", "W"), ("t1.s0", "W"))}


def test_racy_pairs_need_a_write():
    p = load("global g\n\nmain:\n  create t1 as e1\n  x = g\n\nt1:\n  y = g\n")
    assert find_racy_pairs(enumerate_traces(p)) == frozenset()


def test_bidirectional_same_thread_false():
    p = load("global g\n\nmain:\n  g = 1\n  g = 2\n")
    ts = enumerate_traces(p)
    sites = [s for s, _, _ in access_sites(p)]
    assert not bidirectionally_compatible(ts, "g", sites[0], sites[1])


def test_bidirectional_unsynchronized_true(prog0, prog0_traces):
    sites = [s for s, _, _ in access_sites(prog0)]
    assert bidirectionally_compatible(prog0_traces, "g", sites[0], sites[1])


def test_bidirectional_lock_protected_false(prog1, prog1_traces):
    sites = access_sites(prog1)
    protected = [s for s, _, _ in sites if s != "main.s0"]
    assert not bidirectionally_compatible(prog1_traces, "g", protected[0], protected[1])


def test_mutex_chain_invariants(prog1_traces):
    # every lock has exactly one mutex dependency; every observable feeds
    # at most one observer
    for pom in prog1_traces.pomsets:
        by_src = {}
        for d in pom.deps:
            if d.kind == "mutex":
                key = (d.src, d.label)
                assert key not in by_src
                by_src[key] = d.dst
        locks = [
            e for e in pom.events
            if e.action is not None and e.action.kind == "lock"
        ]
        for lk in locks:
            deps = [d for d in pom.deps if d.dst == lk]
            assert len(deps) == 1 and deps[0].kind == "mutex"


def _replay(p, step):
    """The trace the step functions make from the traces a recorded step
    read: the creator's trace before the create, or the trace before the
    event and, at a lock, startO or join, the observed one."""
    e = step.event
    if e.edge is None:  # a child's start event
        return spawn(p, p.create_edges()[e.instance[-1][0]], step.before)
    if e.action.kind == "create":
        return step_creator(p, e.edge, step.before)
    if e.action.is_observing:
        return trace_step_observing(e.edge, step.before, step.observed)
    return trace_step_local(e.edge, step.before)


def _successors(p, t, traces):
    """Every trace the step functions build from ``t``, observing any of
    ``traces``."""
    for edge in p.edges_from(t.ego_node()):
        if edge.action.kind == "create":
            yield from (spawn(p, edge, t), step_creator(p, edge, t))
        elif edge.action.is_observing:
            yield from (trace_step_observing(edge, t, t1) for t1 in traces)
        else:
            yield trace_step_local(edge, t)


def _wrong_history(t) -> bool:
    return t.history != history(t.events, t.deps, t.top)


def _disagreements(p, ts) -> tuple[int, list[str]]:
    """Compare the local-trace steps with the enumeration ``ts`` of ``p``:
    each recorded step must be rebuilt exactly, and on an exhaustive run
    no step may lead out of the enumerated traces.  Every trace a step
    makes must carry the history its events and deps define.  Returns the
    number of recorded steps and the disagreements."""
    found = []
    for step in ts.steps():
        rebuilt = _replay(p, step)
        if rebuilt != step.after:
            found.append(f"rebuilt {step.event.describe()} differs")
        elif _wrong_history(rebuilt):
            found.append(f"rebuilt {step.event.describe()} has history {rebuilt.history}")
    if not ts.truncated:
        known = set(ts.traces)
        for t in ts.traces:
            for out in _successors(p, t, ts.traces):
                if out is None:
                    continue
                if out not in known:
                    found.append(f"step to {out.top.describe()} is not enumerated")
                elif _wrong_history(out):
                    found.append(f"step to {out.top.describe()} has history {out.history}")
    return len(ts.steps()), found


def test_trace_steps_agree_with_enumeration(corpus_cases):
    # the local-trace steps and the enumerator state one semantics twice
    steps = 0
    for case in corpus_cases:
        n, found = _disagreements(case.program, case.traces())
        steps += n
        assert found == [], case.name
    assert steps > 0


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_trace_steps_agree_with_enumeration_on_generated(name):
    p = load(GENERATED[name])
    ts = enumerate_traces(p)
    assert not ts.truncated
    steps, found = _disagreements(p, ts)
    assert steps > 0 and found == []


# Main takes one of two create edges from one node, so one event is the
# source of x's create dep in some traces and of y's in others.  The lock
# of either child observing the other's unlock must not merge the two.
CREATE_FORK = """\
mutex a

main @ s0:
  s0: init a -> n
  n: create x as c1 -> d1
  n: create y as c2 -> d2

x:
  lock a
  unlock a

y:
  lock a
  unlock a
"""


@pytest.mark.parametrize("src", [
    "mutex a\n\nmain:\n  init a\n  init a\n",
    "once o\n\nmain:\n  initO o\n  initO o\n",
    "once o\n\nmain @ n0:\n  n0: initO o -> n1\n  n1: endO o -> n2\n",
    CREATE_FORK,
], ids=["init-twice", "initO-twice", "endO-outside-once", "create-fork"])
def test_trace_steps_block_what_enumeration_blocks(src):
    p = load(src)
    _, found = _disagreements(p, enumerate_traces(p))
    assert found == []


@pytest.mark.parametrize("src, kind", [
    ("mutex a\n\nmain:\n  init a\n  create t1 as e1\n  create t2 as e2\n\n"
     "t1:\n  lock a\n  lock a\n\nt2:\n  lock a\n  unlock a\n", "lock"),
    ("once o\n\nmain:\n  initO o\n  create t1 as e1\n  create t2 as e2\n\n"
     "t1:\n  once o\n    once o\n    end\n  end\n\nt2:\n  once o\n  end\n",
     "startO"),
], ids=["lock-while-held", "startO-while-inside"])
def test_ego_does_not_retake_what_it_holds(src, kind):
    # only main inits, so every init/unlock (initO/endO) that t1 could pair
    # with already feeds a lock (startO) or lies past t1's top; t1 holds the
    # mutex (is inside the once variable) and must not take it again
    p = load(src)
    traces = enumerate_traces(p).traces
    holding = [
        t for t in traces
        if t.ego == (("e1", 0),)
        and any(e.instance == t.ego and e.action is not None and e.action.kind == kind
                for e in t.events)
        and any(edge.action.kind == kind for edge in p.edges_from(t.ego_node()))
    ]
    assert holding
    for t0 in holding:
        for edge in p.edges_from(t0.ego_node()):
            assert all(trace_step_observing(edge, t0, t1) is None for t1 in traces)
