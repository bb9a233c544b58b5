from __future__ import annotations

import pytest

from racedigest.digests import CANONICAL_ORDER, ProductDigest, build_digests
from racedigest.dsl import DslSyntaxError, parse_program, print_program
from racedigest.model import (
    MAIN_LABEL,
    WRITE,
    ValidationError,
    access_sequence,
    access_sites,
    atomicity_mutex,
    instrument_atomicity,
    sorted_edges,
)
from racedigest.oracle import enumerate_traces
from racedigest.solver import build_system

from tests.conftest import CODE_AFTER_EXIT

PROG1 = """
global g
mutex a

main:
  init a
  g = 0
  create t1 as e1
  lock a
  g = 5
  unlock a

t1:
  lock a
  g = 12
  unlock a
"""


def test_parse_running_example():
    p = parse_program(PROG1)
    assert set(p.prototypes) == {"main", "t1"}
    assert p.globals == {"g"}
    assert p.mutexes == {"a", atomicity_mutex("g")}
    assert p.main() is p.prototypes[MAIN_LABEL]


def test_empty_main_is_single_start_node_plus_exit():
    p = parse_program("main:\n")
    proto = p.main()
    exits = [e for e in proto.edges if e.action.kind == "exit"]
    assert len(proto.edges) == 1 and len(exits) == 1
    assert exits[0].source == proto.start_node


def test_missing_main_rejected():
    with pytest.raises(ValidationError):
        parse_program("t1:\n  skip\n")


def test_undeclared_mutex_rejected():
    with pytest.raises(ValidationError):
        parse_program("main:\n  lock a\n")


def test_undeclared_global_rejected():
    with pytest.raises(DslSyntaxError):
        parse_program("main:\n  g = 1\n")


def test_reserved_mutex_name_rejected():
    with pytest.raises(DslSyntaxError):
        parse_program("mutex m_g\n\nmain:\n")
    with pytest.raises(DslSyntaxError):
        parse_program("global g\nmutex a\n\nmain:\n  lock m_g\n")


def test_duplicate_create_id_rejected():
    src = "main:\n  create t as e1\n  create t as e1\n\nt:\n  skip\n"
    with pytest.raises(DslSyntaxError):
        parse_program(src)


def test_join_of_unknown_create_id_rejected():
    with pytest.raises(ValidationError):
        parse_program("main:\n  join nope\n")


@pytest.mark.parametrize("src, error", [
    ("mutex a\n\nmain:\n  create t as e\n\nt:\n  init a\n", "init a in 't'"),
    ("once o\n\nmain:\n  create t as e\n\nt:\n  initO o\n", "initO o in 't'"),
    ("main:\n  create t as e\n\nt:\n  create main as e2\n", "create of main in 't'"),
], ids=["init", "initO", "create-main"])
def test_init_outside_main_rejected(src, error):
    # one main instance inits every mutex and once variable
    with pytest.raises(ValidationError, match=error):
        parse_program(src)


@pytest.mark.parametrize("src", [
    CODE_AFTER_EXIT,
    "global g\n\nmain @ m0:\n  m0: thread_exit -> m1\n  m1: g = 1 -> m2\n",
], ids=["sugar", "explicit"])
def test_code_after_thread_exit_rejected(src):
    # an exited instance steps no further, so an exit must end at a sink
    with pytest.raises(ValidationError, match=r"^code after thread_exit in 'main' \(line 4\)$"):
        parse_program(src)


@pytest.mark.parametrize("src", [
    "global g\n\nmain:\n  g = 1\n  thread_exit\n",
    "global g\n\nmain @ m0:\n  m0: g = 1 -> m1\n  m1: thread_exit -> m2\n",
], ids=["sugar", "explicit"])
def test_thread_exit_at_the_end_accepted(src):
    exits = [e for e in parse_program(src).all_edges() if e.action.kind == "exit"]
    assert len(exits) == 1  # no second, implicit exit at the sink


def test_instrumentation_wraps_each_access():
    p = instrument_atomicity(parse_program(PROG1))
    mg = atomicity_mutex("g")
    locks = [e for e in p.all_edges() if e.action.kind == "lock" and e.action.target == mg]
    unlocks = [e for e in p.all_edges() if e.action.kind == "unlock" and e.action.target == mg]
    accesses = [e for e in p.all_edges() if e.action.kind in ("read", "write")]
    assert len(locks) == len(unlocks) == len(accesses) == 3
    for site, glob, _ in access_sites(p):
        lock_e, acc_e, unl_e = access_sequence(p, site)
        assert lock_e.action.kind == "lock" and lock_e.action.target == atomicity_mutex(glob)
        assert acc_e.source == site
        assert unl_e.action.kind == "unlock" and unl_e.action.target == atomicity_mutex(glob)


def test_all_edges_sorted_once_per_program():
    p = instrument_atomicity(parse_program(PROG1))
    edges = p.all_edges()
    assert edges is p.all_edges()
    assert isinstance(edges, tuple)  # callers cannot change the cached order
    assert list(edges) == [e for label in sorted(p.prototypes)
                           for e in sorted_edges(p.prototypes[label].edges)]


def test_instrumentation_prepends_init_prologue():
    p = instrument_atomicity(parse_program(PROG1))
    main = p.main()
    (first,) = p.edges_from(main.start_node)
    assert first.action.kind == "init" and first.action.target == atomicity_mutex("g")


def test_instrumentation_without_accesses_only_adds_prologue():
    src = "global g\n\nmain:\n  skip\n"
    before = parse_program(src)
    after = instrument_atomicity(before)
    extra = {e for e in after.all_edges()} - {e for e in before.all_edges()}
    assert {e.action.kind for e in extra} == {"init"}
    assert len(extra) == 1


def test_double_instrumentation_rejected():
    p = instrument_atomicity(parse_program(PROG1))
    with pytest.raises(ValidationError):
        instrument_atomicity(p)


def test_access_sites_running_example():
    p = instrument_atomicity(parse_program(PROG1))
    sites = access_sites(p)
    assert [s[1:] for s in sites] == [("g", WRITE)] * 3


def test_access_sites_read_only():
    p = instrument_atomicity(parse_program("global g\n\nmain:\n  x = g\n"))
    assert [s[1:] for s in access_sites(p)] == [("g", "R")]


# the access sequence at s as instrumentation makes it, in machine form
WRAPPED = ("global g\nglobal h\n\nmain @ m0:\n"
           "  m0: lock m_g -> s\n  s: g = 1 -> t\n  t: unlock m_g -> x\n")


@pytest.mark.parametrize("src", [
    WRAPPED.replace("lock m_g ->", "lock m_h ->"),
    WRAPPED.replace("unlock m_g", "unlock m_h"),
    WRAPPED.replace("unlock m_g", "skip"),
    WRAPPED.replace("g = 1", "h = 1"),
    WRAPPED + "  m0: skip -> s\n",
    WRAPPED + "  s: g = 2 -> t\n",
    WRAPPED + "  t: skip -> x\n",
], ids=["other-lock", "other-unlock", "no-unlock", "other-global", "second-way-in",
        "second-access", "second-way-out"])
def test_access_sequence_refuses_a_broken_wrapping(src):
    p = parse_program(src)
    assert [e.target for e in access_sequence(parse_program(WRAPPED), "s")] == ["s", "t", "x"]
    with pytest.raises(ValidationError, match=r"^'s' is not an access site$"):
        access_sequence(p, "s")


def test_an_unwrapped_access_is_refused_by_analyzer_and_oracle():
    # not instrumented: analyzed, it would record no access and so no race
    p = parse_program("global g\n\nmain:\n  create t\n  g = 1\n\nt:\n  g = 2\n")
    assert [site for site, _, _ in access_sites(p)] == ["main.1", "t.0"]
    with pytest.raises(ValidationError, match=r"^'main.1' is not an access site$"):
        build_system(p, ProductDigest(build_digests(CANONICAL_ORDER)))
    with pytest.raises(ValidationError, match=r"^'main.1' is not an access site$"):
        enumerate_traces(p)


def test_roundtrip_plain_and_instrumented():
    plain = parse_program(PROG1)
    assert parse_program(print_program(plain)) == plain
    inst = instrument_atomicity(plain)
    assert parse_program(print_program(inst)) == inst


def test_self_loop_permitted():
    p = parse_program("main:\n  skip\n  label T\n  skip\n  goto T\n")
    main = p.main()
    # the goto produces a cycle back onto the labeled node
    sources = {e.source for e in main.edges}
    targets = {e.target for e in main.edges}
    assert sources & targets


def test_unreachable_node_rejected():
    src = "main @ m0:\n  m0: skip -> m1\n  m2: skip -> m3\n"
    with pytest.raises(ValidationError):
        parse_program(src)


def test_start_node_incoming_edge_rejected():
    with pytest.raises(ValidationError):
        parse_program("main:\n  label T\n  skip\n  goto T\n")


def test_once_block_lowering():
    src = "global g\nonce o\n\nmain:\n  initO o\n  once o\n    g = 1\n  end\n"
    p = parse_program(src)
    kinds = sorted(e.action.kind for e in p.main().edges)
    assert "startO" in kinds and "endO" in kinds
    assert "pos_ran" in kinds and "neg_ran" in kinds
    # the guards branch from the node reached by startO
    (start_edge,) = [e for e in p.main().edges if e.action.kind == "startO"]
    guard_kinds = {e.action.kind for e in p.edges_from(start_edge.target)}
    assert guard_kinds == {"pos_ran", "neg_ran"}
    # exactly one endO on the join node, shared by both branches
    (end_edge,) = [e for e in p.main().edges if e.action.kind == "endO"]
    (pos_edge,) = [e for e in p.main().edges if e.action.kind == "pos_ran"]
    assert pos_edge.target == end_edge.source


def test_multi_target_goto_forks():
    src = (
        "global g\n\nmain:\n  skip\n  goto A B\n"
        "  label A\n  g = 1\n  goto END\n  label B\n  g = 2\n  label END\n"
    )
    p = parse_program(src)
    (fork,) = [
        n for n in p.main().nodes()
        if len([e for e in p.main().edges if e.source == n and e.action.kind == "skip"]) == 2
    ]
    targets = {e.target for e in p.main().edges if e.source == fork}
    assert len(targets) == 2

    from racedigest.oracle import enumerate_traces

    ts = enumerate_traces(instrument_atomicity(p))
    assert not ts.truncated
    written_sites = {
        frozenset(
            e.edge.source for e in pom.events
            if e.action is not None and e.action.kind == "write"
        )
        for pom in ts.pomsets
    }
    assert written_sites == {frozenset({"main.s0"}), frozenset({"main.s1"})}


def test_unterminated_once_block():
    with pytest.raises(DslSyntaxError):
        parse_program("once o\n\nmain:\n  once o\n    skip\n")



def _syntax_error(src: str) -> DslSyntaxError:
    with pytest.raises(DslSyntaxError) as info:
        parse_program(src)
    return info.value


def test_goto_to_an_unplaced_label_rejected():
    err = _syntax_error("global g\n\nmain:\n  g = 1\n  goto L\n")
    assert err.line == 5 and "'L'" in str(err)
    # each prototype places its own labels
    err = _syntax_error("main:\n  label L\n  create t\n\nt:\n  skip\n  goto L\n\nu:\n  skip\n")
    assert err.line == 7
    # a fork names every target; the first unplaced one is reported
    err = _syntax_error("main:\n  label A\n  goto A B\n  goto C\n")
    assert err.line == 3 and "'B'" in str(err)


def test_label_placed_twice_rejected():
    err = _syntax_error("global g\n\nmain:\n  label L\n  g = 1\n  label L\n  goto L\n")
    assert err.line == 6 and "line 4" in str(err)


def test_labels_used_before_and_after_their_goto_parse():
    src = "global g\n\nmain:\n  goto L\n  label B\n  g = 1\n  label L\n  goto B L2\n  label L2\n"
    assert parse_program(src).prototypes["main"].edges


def test_parse_error_carries_line():
    try:
        parse_program("main:\n  frobnicate everything\n")
    except DslSyntaxError as e:
        assert e.line == 2
    else:
        pytest.fail("expected a syntax error")
