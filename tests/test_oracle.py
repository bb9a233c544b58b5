from __future__ import annotations


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
)

from perfbench.gen import interleave_program
from tests.conftest import GENERATED, ONCE_HANDOFF
from tests.test_oracle_reference import observing_steps
from tests.reference_oracle import (
    Trace,
    causal_order,
    content,
    history,
    pomset_ancestors,
    step_local,
    step_observing,
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


def recorded(ts, edge, t0, t1=None):
    """The trace the search of ``ts`` made taking ``edge`` from ``t0``,
    observing ``t1``, or None if it recorded no such step."""
    return ts.step_index().get(edge, {}).get((t0, t1))


def creating_edge(p, t):
    """The create edge of the child whose start is ``t``."""
    return next(e for e in p.all_edges() if e.action.create_id == t.ego[-1][0])


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
    assert not prog1_traces.truncated
    for t in traces_at_node(prog1_traces, site):
        out = recorded(prog1_traces, acc_edge, t)
        assert out is not None
        assert out.ego_node() == acc_edge.target
        validate_local_trace(out)


def test_local_step_wrong_node_is_empty(prog1, prog1_traces):
    (site, _, _) = access_sites(prog1)[0]
    (acc_edge,) = prog1.edges_from(site)
    t = next(t for t in prog1_traces.traces if t.ego_node() != site)
    assert recorded(prog1_traces, acc_edge, t) is None
    assert step_local(acc_edge, t) is None


def test_pos_ran_without_endo_is_empty():
    p = load("global g\nonce o\n\nmain:\n  initO o\n  pos ran o\n  g = 1\n")
    ts = enumerate_traces(p)
    assert not ts.truncated
    (pos_edge,) = [e for e in p.main().edges if e.action.kind == "pos_ran"]
    for t in traces_at_node(ts, pos_edge.source):
        assert recorded(ts, pos_edge, t) is None
        assert step_local(pos_edge, t) is None
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
    creator = recorded(prog1_traces, create_edge, t)
    assert creator is not None and creator.ego == MAIN
    assert creator.ego_node() == create_edge.target


def test_local_steps_and_spawn_build_no_event_set(monkeypatch, prog1, prog1_traces):
    """The search's step code (``_extend``, and ``spawn`` at a child's
    start) ORs its inputs' masks and carries the history forward
    (``History.after`` and ``History.start``), building no event or dep
    set to fold a history over: each recorded step, replayed from the
    traces it read, makes its trace so."""
    traces = prog1_traces.traces

    def build(mask, items):
        raise AssertionError("an event set was built")

    monkeypatch.setattr(oracle, "_members", build)
    made = set()
    for t in traces[1:]:
        if t.top.edge is None:
            out = spawn(prog1, creating_edge(prog1, t), t.before)
        else:
            out = oracle._extend(t.before, t.top.edge, t.observed)
        assert out == t
        made.add(out.top.action.kind if out.top.action else "start")
    assert {"start", "lock", "unlock", "write"} <= made


def test_step_functions_record_their_step(prog1, prog1_traces):
    (site, _, _) = access_sites(prog1)[0]
    (acc_edge,) = prog1.edges_from(site)
    for t in traces_at_node(prog1_traces, site):
        out = oracle._extend(t, acc_edge)
        assert out.before is t and out.observed is None

    (lock_edge,) = [e for e in prog1.prototypes["t1"].edges
                    if e.action.kind == "lock" and e.action.target == "a"]
    merged = 0
    for t0 in traces_at_node(prog1_traces, lock_edge.source):
        for t1 in traces_with_top(prog1_traces, "unlock", "a", instance=MAIN):
            if step_observing(prog1, lock_edge, t0, t1) is not None:
                out = oracle._extend(t0, lock_edge, t1)
                merged += 1
                assert out.before is t0 and out.observed is t1
                assert out == recorded(prog1_traces, lock_edge, t0, t1)
    assert merged

    (create_edge,) = [e for e in prog1.all_edges() if e.action.kind == "create"]
    creator = next(t for t in traces_at_node(prog1_traces, create_edge.source) if t.ego == MAIN)
    child = spawn(prog1, create_edge, creator)
    assert child.before is creator and child.observed is None


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
            merged = merged or recorded(prog1_traces, lock_edge, t0, t1)
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
    assert not ts.truncated
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
        assert recorded(ts, e, t0, t1) is None
        assert step_observing(p, e, t0, t1) is None
    own_unlock = [t for t in traces_with_top(ts, "unlock", "a") if t.ego == t0.ego]
    assert any(recorded(ts, e, t0, t1) is not None for t1 in own_unlock)


def test_join_observes_only_matching_exit():
    p = load(
        "global g\n\nmain:\n  create t1 as e1\n  create t2 as e2\n  join e1\n  g = 0\n\n"
        "t1:\n  skip\n\nt2:\n  g = 1\n"
    )
    ts = enumerate_traces(p)
    assert not ts.truncated
    (join_edge,) = [e for e in p.main().edges if e.action.kind == "join"]
    starters = [t for t in traces_at_node(ts, join_edge.source) if t.ego == MAIN]
    exits_t1 = [t for t in traces_with_top(ts, "exit") if edge_path(t.ego) == ("e1",)]
    exits_t2 = [t for t in traces_with_top(ts, "exit") if edge_path(t.ego) == ("e2",)]
    assert starters and exits_t1 and exits_t2
    assert any(
        recorded(ts, join_edge, t0, t1) is not None
        for t0 in starters
        for t1 in exits_t1
    )
    for t0 in starters:
        for t1 in exits_t2:
            assert recorded(ts, join_edge, t0, t1) is None
            assert step_observing(p, join_edge, t0, t1) is None


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
    # the search records one trace per (trace, edge, observed trace), and
    # its step code, taken again, makes that trace
    index = prog1_traces.step_index()
    assert sum(map(len, index.values())) == sum(
        t.top.edge is not None for t in prog1_traces.traces)
    (site, _, _) = access_sites(prog1)[0]
    (acc_edge,) = prog1.edges_from(site)
    for t in traces_at_node(prog1_traces, site):
        assert oracle._extend(t, acc_edge) == recorded(prog1_traces, acc_edge, t)


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
    assert not bidirectionally_compatible(ts, sites[0], sites[1])


def test_bidirectional_unsynchronized_true(prog0, prog0_traces):
    sites = [s for s, _, _ in access_sites(prog0)]
    assert bidirectionally_compatible(prog0_traces, sites[0], sites[1])


def test_bidirectional_lock_protected_false(prog1, prog1_traces):
    sites = access_sites(prog1)
    protected = [s for s, _, _ in sites if s != "main.s0"]
    assert not bidirectionally_compatible(prog1_traces, protected[0], protected[1])


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


def _rebuilt(p, t, sets):
    """``t`` made anew from the traces its recorded step read: a child's
    start by ``spawn`` from the creator's trace, every other trace by the
    reference step on frozensets (``sets``) from the trace before it and,
    at a lock, startO or join, the observed one."""
    e = t.top
    if e.edge is None:
        return spawn(p, creating_edge(p, t), t.before)
    if e.action.is_observing:
        return step_observing(p, e.edge, sets[t.before], sets[t.observed])
    return step_local(e.edge, sets[t.before])


def _disagreements(p, ts) -> tuple[int, list[str]]:
    """Compare the steps the search of ``ts`` recorded with the reference
    steps on frozensets.  Each trace but main's start must carry the
    history its events and deps define and be what its recorded step makes
    from the traces it read.  On an exhaustive run the recorded steps are
    every step there is: from each trace, over each edge and, at a lock,
    startO or join, observing each trace whose top it may observe, the
    reference steps exactly when a step was recorded, to the same trace,
    and each child's start is enumerated.  Returns the number of recorded
    steps and the disagreements."""
    sets = {t: Trace(t.events, t.deps, t.top, t.history) for t in ts.traces}
    found = []
    for t in ts.traces[1:]:
        if t.history != history(t.events, t.deps, t.top):
            found.append(f"{t.top.describe()} has history {t.history}")
        rebuilt = _rebuilt(p, t, sets)
        if rebuilt is None or content(rebuilt) != content(t):
            found.append(f"rebuilt {t.top.describe()} differs")
    if not ts.truncated:
        known, index = set(ts.traces), ts.step_index()
        steps = list(observing_steps(p, ts))
        for t0 in ts.traces:
            for edge in p.edges_from(t0.ego_node()):
                if not edge.action.is_observing:
                    got = index.get(edge, {}).get((t0, None))
                    steps.append((edge, t0, None, got, step_local(edge, sets[t0])))
                if edge.action.kind == "create" and spawn(p, edge, t0) not in known:
                    found.append(f"start created from {t0!r} is not enumerated")
        for edge, t0, t1, got, want in steps:
            if (got and content(got)) != (want and content(want)):
                found.append(f"{t0!r} over {edge.action.kind} observing {t1!r}: "
                             f"recorded {got!r}, reference {want!r}")
    return len(ts.traces) - 1, found


def test_trace_steps_agree_with_enumeration(corpus_cases):
    # the search's steps against the reference steps on frozensets
    steps = 0
    for case in corpus_cases:
        n, found = _disagreements(case.program, case.traces())
        steps += n
        assert found == [], case.name
    assert steps > 0


# larger seeded benchmark programs, and one whose race rests on a hand-off
MORE_GENERATED = {
    "interleave-3x2-s0": interleave_program(3, 2, 0),
    "interleave-2x3-s1": interleave_program(2, 3, 1),
    "once-handoff": ONCE_HANDOFF,
}


@pytest.mark.parametrize("name", sorted(GENERATED) + sorted(MORE_GENERATED))
def test_trace_steps_agree_with_enumeration_on_generated(name):
    p = load({**GENERATED, **MORE_GENERATED}[name])
    ts = enumerate_traces(p, 60, 5)
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
    ts = enumerate_traces(p)
    assert not ts.truncated
    traces = ts.traces
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
            for t1 in traces:
                assert recorded(ts, edge, t0, t1) is None
                assert step_observing(p, edge, t0, t1) is None
