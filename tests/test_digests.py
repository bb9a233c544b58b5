from __future__ import annotations

import itertools
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from racedigest.digest import (
    ConfigError,
    Digest,
    ProductDigest,
    generic_mhp,
)
from racedigest.digests import (
    MT,
    MT_MAIN,
    MUTANTS,
    ST_MAIN,
    CANONICAL_ORDER,
    JoinDigest,
    JoinElem,
    LocksetDigest,
    OnceDigest,
    ThreadFlagDigest,
    ThreadIdDigest,
    TidElem,
    TID_OVERFLOW,
    build_digests,
)
from racedigest.dsl import parse_program
from racedigest.model import Action, instrument_atomicity
from racedigest.oracle import enumerate_traces

F, T = False, True

LOCK_A = Action("lock", "a")
UNLOCK_A = Action("unlock", "a")
LOCK_MG = Action("lock", "m_g")
CREATE_E1 = Action("create", "t1", create_id="e1")


# --- lockset ---------------------------------------------------------------

def test_lockset_lock_unlock():
    d = LocksetDigest()
    s = frozenset()
    s1 = d.step_observing(LOCK_A, s, frozenset())
    assert s1 == {"a"}
    assert d.step_observing(LOCK_A, s1, frozenset()) is None  # relock
    assert d.step_local(UNLOCK_A, s1) == s
    assert d.step_local(UNLOCK_A, s) is None  # unlock without holding
    assert d.init_digest() == frozenset()
    assert d.new_digest(s1, "e1") == frozenset()


@given(st.frozensets(st.sampled_from(["a", "b", "c"])))
def test_lockset_lock_then_unlock_is_identity(s):
    d = LocksetDigest()
    if "a" in s:
        return
    held = d.step_observing(LOCK_A, s, frozenset({"b"}))
    assert d.step_local(UNLOCK_A, held) == s


@given(
    st.frozensets(st.sampled_from(["a", "b", "c"])),
    st.frozensets(st.sampled_from(["a", "b", "c"])),
)
def test_lockset_mhp_matches_intersection(sa, sb):
    d = LocksetDigest()
    assert d.mhp("g", sa, sb) is (F if sa & sb else T)
    assert d.mhp("g", sa, sb) is d.mhp("g", sb, sa)


def test_lockset_generic_vs_bespoke():
    d = LocksetDigest()
    a = frozenset({"a"})
    assert d.mhp("g", a, a) is F
    assert generic_mhp(d, "g", a, a) is T  # lock(m_g) merges both ways


# --- threadflag -------------------------------------------------------------

def test_threadflag_transfer_table_exhaustive():
    d = ThreadFlagDigest()
    flags = [ST_MAIN, MT_MAIN, MT]
    for m0, m1 in itertools.product(flags, flags):
        got = d.step_observing(LOCK_A, m0, m1)
        expected = None if (m0 == ST_MAIN and m1 != ST_MAIN) else m0
        assert got == expected
    for m in flags:
        assert d.step_local(Action("create", "t1", create_id="e"), m) == (
            MT if m == MT else MT_MAIN
        )
        for kind, target in (("unlock", "a"), ("init", "a"), ("write", "g"), ("skip", None)):
            assert d.step_local(Action(kind, target, local="x"), m) == m
    assert d.init_digest() == ST_MAIN
    assert d.new_digest(MT_MAIN, "e1") == MT


def test_threadflag_mhp():
    d = ThreadFlagDigest()
    assert d.mhp("g", ST_MAIN, MT) is F
    assert d.mhp("g", MT, ST_MAIN) is F
    assert d.mhp("g", MT_MAIN, MT_MAIN) is F
    assert d.mhp("g", MT_MAIN, MT) is T
    assert d.mhp("g", MT, MT) is T


def test_threadflag_generic_mhp_excludes_single_threaded():
    d = ThreadFlagDigest()
    assert generic_mhp(d, "g", ST_MAIN, MT) is F
    assert generic_mhp(d, "g", MT_MAIN, MT) is T


# --- tid ---------------------------------------------------------------------

def test_tid_new_digest_extends_path():
    d = ThreadIdDigest()
    root = d.init_digest()
    child = d.new_digest(root, "e1")
    assert child == TidElem(("e1",), (), True)
    grand = d.new_digest(child, "e2")
    assert grand.path == ("e1", "e2") and grand.unique


def test_tid_create_step_tracks_counts():
    d = ThreadIdDigest()
    root = d.init_digest()
    once = d.step_local(CREATE_E1, root)
    assert once.created == ("e1",)
    twice = d.step_local(CREATE_E1, once)
    assert twice.created == ("e1", "e1")
    thrice = d.step_local(CREATE_E1, twice)
    assert thrice.created == ("e1", "e1")  # saturated


def test_tid_uniqueness_lost_on_repeat_create():
    d = ThreadIdDigest()
    root = d.init_digest()
    after = d.step_local(CREATE_E1, root)
    second_child = d.new_digest(after, "e1")
    assert second_child.unique is False


def test_tid_mhp_same_unique_thread():
    d = ThreadIdDigest()
    a = TidElem(("e1",), (), True)
    assert d.mhp("g", a, a) is F
    b = TidElem(("e1",), (), False)
    assert d.mhp("g", a, b) is T  # another instance may share the path
    assert d.mhp("g", b, b) is T


def test_tid_mhp_not_yet_created():
    d = ThreadIdDigest()
    main_before = TidElem((), (), True)
    child = TidElem(("e1",), (), True)
    assert d.mhp("g", main_before, child) is F
    main_after = TidElem((), ("e1",), True)
    assert d.mhp("g", main_after, child) is T
    assert d.mhp("g", child, main_after) is T


def test_tid_overflow_is_inert():
    d = ThreadIdDigest(cap=1)
    root = d.init_digest()
    child = d.new_digest(root, "e1")
    assert child.path == ("e1",)
    grand = d.new_digest(child, "e2")
    assert grand is TID_OVERFLOW
    assert d.new_digest(grand, "e1") is TID_OVERFLOW
    assert d.step_local(CREATE_E1, grand) is TID_OVERFLOW
    assert d.mhp("g", grand, grand) is T
    assert d.mhp("g", root, grand) is T


# --- join ---------------------------------------------------------------------

def test_join_records_unique_single_child():
    d = JoinDigest()
    root = d.init_digest()
    at_join = d.step_local(CREATE_E1, root)
    child_exit = JoinElem(TidElem(("e1",), (), True), frozenset())
    out = d.step_observing(Action("join", "e1"), at_join, child_exit)
    assert out.joined == {("e1",)}


def test_join_merges_transitive_joins():
    d = JoinDigest()
    root = d.init_digest()
    at_join = d.step_local(CREATE_E1, root)
    child_exit = JoinElem(TidElem(("e1",), ("e2",), True), frozenset({("e1", "e2")}))
    out = d.step_observing(Action("join", "e1"), at_join, child_exit)
    assert out.joined == {("e1",), ("e1", "e2")}


def test_join_skips_doubly_created_edge():
    d = JoinDigest()
    root = d.init_digest()
    s = d.step_local(CREATE_E1, root)
    s = d.step_local(CREATE_E1, s)
    child_exit = JoinElem(TidElem(("e1",), (), True), frozenset())
    out = d.step_observing(Action("join", "e1"), s, child_exit)
    assert out.joined == frozenset()  # cannot tell which child terminated


def test_join_prunes_foreign_exits():
    d = JoinDigest()
    root = d.init_digest()
    at_join = d.step_local(CREATE_E1, root)
    stranger = JoinElem(TidElem(("e9",), (), True), frozenset())
    assert d.step_observing(Action("join", "e1"), at_join, stranger) is None


def test_join_mhp_uses_uniqueness():
    d = JoinDigest()
    me = JoinElem(TidElem((), ("e1",), True), frozenset({("e1",)}))
    joined_unique = JoinElem(TidElem(("e1",), (), True), frozenset())
    joined_shared = JoinElem(TidElem(("e1",), (), False), frozenset())
    assert d.mhp("g", me, joined_unique) is F
    assert d.mhp("g", joined_unique, me) is F
    assert d.mhp("g", me, joined_shared) is T
    assert d.mhp("g", me, me) is T


def test_join_requires_tid_in_product():
    with pytest.raises(ConfigError):
        build_digests(["join"])
    with pytest.raises(ConfigError):
        build_digests(["lockset", "join"])
    names = [d.name for d in build_digests(["join", "tid"])]
    assert names == ["tid", "join"]


# --- once ---------------------------------------------------------------------

def test_once_transfer_table():
    d = OnceDigest()
    empty = (frozenset(), frozenset())
    assert d.init_digest() == empty
    started = d.step_observing(Action("startO", "o"), empty, empty)
    assert started == (frozenset({"o"}), frozenset())
    assert d.step_observing(Action("startO", "o"), started, empty) is None  # recursion
    done = d.step_local(Action("endO", "o"), started)
    assert done == (frozenset(), frozenset({"o"}))
    # completions learned from the observed trace
    merged = d.step_observing(Action("startO", "p"), empty, done)
    assert merged == (frozenset({"p"}), frozenset({"o"}))
    # guards
    assert d.step_local(Action("pos_ran", "o"), empty) is None
    assert d.step_local(Action("pos_ran", "o"), done) == done
    assert d.step_local(Action("neg_ran", "o"), done) is None
    assert d.step_local(Action("neg_ran", "o"), empty) == empty
    # other observing actions keep only the ego pair
    assert d.step_observing(LOCK_A, started, done) == started
    assert d.new_digest(done, "e1") == (frozenset(), frozenset({"o"}))


def test_once_mhp():
    d = OnceDigest()
    active = (frozenset({"o"}), frozenset())
    done = (frozenset(), frozenset({"o"}))
    empty = (frozenset(), frozenset())
    assert d.mhp("g", active, active) is F
    assert d.mhp("g", active, done) is F
    assert d.mhp("g", done, active) is F
    assert d.mhp("g", done, done) is T
    assert d.mhp("g", empty, empty) is T


# --- product -------------------------------------------------------------------

def test_product_pointwise_and_meet():
    prod = ProductDigest(build_digests(["lockset", "threadflag"]))
    init = prod.init_digest()
    assert init == (frozenset(), ST_MAIN)
    stepped = prod.step_observing(LOCK_A, init, (frozenset(), MT))
    assert stepped is None  # threadflag coordinate rejects the merge
    elem = (frozenset({"a"}), MT)
    assert prod.mhp("g", elem, elem) is F  # lockset coordinate answers false
    assert prod.mhp("g", (frozenset(), MT), (frozenset(), MT)) is T


def test_product_component_none_collapses():
    prod = ProductDigest(build_digests(["lockset", "once"]))
    elem = (frozenset(), (frozenset(), frozenset()))
    assert prod.step_local(Action("pos_ran", "o"), elem) is None


class _Recording(Digest):
    """Keeps every value and records each step it is asked for."""

    name = "recording"

    def __init__(self):
        self.calls = []

    def new_digest(self, elem, create_id):
        self.calls.append("new")
        return elem

    def step_local(self, act, elem):
        self.calls.append(act.kind)
        return elem

    def step_observing(self, act, elem0, elem1):
        self.calls.append(act.kind)
        return elem0


class _Refusing(Digest):
    name = "refusing"

    def new_digest(self, elem, create_id):
        return None

    def step_local(self, act, elem):
        return None

    def step_observing(self, act, elem0, elem1):
        return None


def test_product_steps_stop_at_the_first_none():
    steps = (lambda d: d.new_digest((0, 1), "c"), lambda d: d.step_local(UNLOCK_A, (0, 1)),
             lambda d: d.step_observing(LOCK_A, (0, 1), (2, 3)))
    for step in steps:
        rec = _Recording()
        assert step(ProductDigest((rec, rec))) == (0, 1)
        assert len(rec.calls) == 2
        rec.calls.clear()
        assert step(ProductDigest((_Refusing(), rec))) is None and rec.calls == []
        assert step(ProductDigest((rec, _Refusing()))) is None and len(rec.calls) == 1


class _Verdict(Digest):
    """Judges every pair with one fixed verdict."""

    def __init__(self, verdict):
        self.verdict = verdict

    def mhp(self, glob, a, b):
        return self.verdict


@given(st.lists(st.sampled_from([F, T]), min_size=1, max_size=5))
def test_verdict_meet_is_false_absorbing(verdicts):
    # the product's predicate is the meet of its components' verdicts
    product = ProductDigest(tuple(map(_Verdict, verdicts)))
    elem = (None,) * len(verdicts)
    assert product.mhp("g", elem, elem) is (F if F in verdicts else T)


def test_registry_normalizes_order_and_rejects_unknown():
    names = [d.name for d in build_digests(["once", "lockset", "tid"])]
    assert names == ["lockset", "tid", "once"]
    with pytest.raises(ConfigError):
        build_digests(["lockset", "mystery"])
    assert set(MUTANTS) == set(CANONICAL_ORDER)


def test_abstract_trace_deeper_than_recursion_limit():
    # every digest abstracts a trace longer than the recursion limit
    src = "global g\nonce o\n\nmain:\n  initO o\n  label T\n  once o\n    g = 1\n  end\n  goto T\n"
    ts = enumerate_traces(
        instrument_atomicity(parse_program(src)), depth=sys.getrecursionlimit() + 100, width=1
    )
    deepest = max(ts.traces, key=lambda t: len(t.events))
    assert len(deepest.events) > sys.getrecursionlimit()
    alphas = {d.name: d.abstract(deepest.ego, deepest.history)
              for d in build_digests(CANONICAL_ORDER)}
    assert alphas["once"][1] == frozenset({"o"})
