from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from racedigest.digest import ProductDigest
from racedigest.digests import MT, MT_MAIN, ST_MAIN, build_digests
from racedigest.dsl import parse_program
from racedigest.model import access_sites, instrument_atomicity
from racedigest.solver import (
    AccessRecord,
    SolverDivergence,
    build_system,
    solve,
    verify_postfixpoint,
)

from tests.conftest import solution_json


def solve_for(program, names):
    product = ProductDigest(build_digests(names))
    return product, solve(build_system(program, product))


def test_threadflag_annotations_match_figure(prog1):
    # each program point of the running example realizes exactly the one
    # flag from its annotation column
    product, sol = solve_for(prog1, ["threadflag"])
    sites = {s: None for s, _, _ in access_sites(prog1)}
    expected = {"main.s0": ST_MAIN, "main.s1": MT_MAIN, "t1.s0": MT}
    for site in sites:
        assert sol.pp[site] == {(expected[site],)}
    for node, elems in sol.pp.items():
        assert len(elems) == 1, f"{node} realizes several flags"


def test_lockset_annotations_match_figure(prog1):
    product, sol = solve_for(prog1, ["lockset"])
    records = {
        (r.site, r.type, r.digest[0]) for r in sol.records("g")
    }
    assert records == {
        ("main.s0", "W", frozenset()),
        ("main.s1", "W", frozenset({"a"})),
        ("t1.s0", "W", frozenset({"a"})),
    }
    # inside the access the atomicity mutex is held
    (post_lock,) = [e.target for e in prog1.main().edges if e.source == "main.3"]
    assert any("a" in elem[0] for elem in sol.pp[post_lock])


def test_empty_main_reaches_only_init_and_exit():
    p = instrument_atomicity(parse_program("main:\n"))
    product, sol = solve_for(p, ["lockset"])
    assert set(sol.pp) == {"main.0", "main.x0"}
    assert sol.races == {}


def test_once_guard_node_realizes_both_branches(once_prog):
    product, sol = solve_for(once_prog, ["once"])
    t1_start_edges = [
        e for e in once_prog.prototypes["t1"].edges if e.action.kind == "startO"
    ]
    (start_edge,) = t1_start_edges
    elems = {elem[0] for elem in sol.pp[start_edge.target]}
    assert elems == {
        (frozenset({"o"}), frozenset()),
        (frozenset({"o"}), frozenset({"o"})),
    }


def test_unreachable_access_has_no_record():
    src = (
        "global g\nonce o\n\n"
        "main:\n  initO o\n  once o\n    g = 1\n  end\n  once o\n    g = 2\n  end\n"
    )
    p = instrument_atomicity(parse_program(src))
    product, sol = solve_for(p, ["once"])
    sites = {r.site for r in sol.records("g")}
    assert len(sites) == 1  # the second body is dead


def test_postfixpoint_and_lazy_materialization(prog1):
    product, sol = solve_for(prog1, ["lockset", "threadflag", "tid", "join", "once"])
    assert verify_postfixpoint(sol)
    for node, elems in sol.pp.items():
        assert len(elems) <= 2


def _drop_fact(sol, prog1, kind: str) -> None:
    # every fact of a least solution is derived from other facts, so
    # removing any one of them breaks a constraint
    if kind == "pp":
        table, key = sol.pp, "main.s1"
    elif kind == "obs":
        table, key = sol.obs, ("unlock", "a")
    elif kind == "race":
        table, key = sol.races, "g"
    else:  # the created thread's start digest
        table, key = sol.pp, prog1.prototypes["t1"].start_node
    table[key].pop()


@pytest.mark.parametrize("kind", ["pp", "obs", "race", "start"])
def test_postfixpoint_rejects_a_missing_fact(prog1, kind):
    product, sol = solve_for(prog1, ["lockset", "threadflag", "tid", "join", "once"])
    assert verify_postfixpoint(sol)
    _drop_fact(sol, prog1, kind)
    assert not verify_postfixpoint(sol)


def test_observing_self_loop_gains_values_while_observed():
    # t1's lock edge loops on its source; `init a` arrives after t1.1 was
    # evaluated, so pairing it with t1.1 adds a value at t1.1 itself
    src = (
        "global g\nmutex a\n\n"
        "main @ main.0:\n"
        "  main.0: create t1 as e1 -> main.1\n"
        "  main.1: skip -> main.2\n"
        "  main.2: skip -> main.3\n"
        "  main.3: skip -> main.4\n"
        "  main.4: init a -> main.5\n\n"
        "t1 @ t1.0:\n"
        "  t1.0: skip -> t1.1\n"
        "  t1.1: lock a -> t1.1\n"
    )
    p = instrument_atomicity(parse_program(src))
    product, sol = solve_for(p, ["lockset"])
    assert sol.pp["t1.1"] == {(frozenset(),), (frozenset({"a"}),)}
    assert verify_postfixpoint(sol)


_SEEDED_SOLVE = """
import json
from racedigest.digest import ProductDigest
from racedigest.digests import CANONICAL_ORDER, build_digests
from racedigest.dsl import parse_program
from racedigest.model import instrument_atomicity
from racedigest.solver import build_system, solve
from tests.conftest import corpus_program, solution_json
from tests.test_sweep import locked_program

for program in (
    corpus_program("prog1_running_example"),
    instrument_atomicity(parse_program(locked_program(4, 4, 6))),
):
    product = ProductDigest(build_digests(CANONICAL_ORDER))
    sol = solve(build_system(program, product))
    print(json.dumps(solution_json(sol), sort_keys=True), sol.evaluations)
"""


def test_solution_does_not_depend_on_hash_seed():
    root = Path(__file__).resolve().parent.parent
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root}")
        run = subprocess.run(
            [sys.executable, "-c", _SEEDED_SOLVE],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 2


def test_oracle_solution_agreement(prog1, prog1_traces):
    # every concrete trace's (point, digest) pair is reachable abstractly,
    # and every concrete access appears in the accumulator
    product, sol = solve_for(prog1, ["lockset", "threadflag", "tid", "join", "once"])
    for t in prog1_traces.traces:
        assert sol.reached(t.top.node, product.abstract(t.ego, t.history)), t.top.describe()
        a = t.top.action
        if a is None or a.kind not in ("read", "write"):
            continue
        lock = t.before
        assert lock.top.action.kind == "lock"
        before = lock.before
        record = AccessRecord(
            t.top.edge.source,
            "W" if a.kind == "write" else "R",
            product.abstract(before.ego, before.history),
        )
        assert record in sol.records(a.target)


def test_divergence_guard(prog1):
    product = ProductDigest(build_digests(["lockset"]))
    with pytest.raises(SolverDivergence):
        solve(build_system(prog1, product), max_evaluations=3)


def test_solution_json_dump_deterministic(prog1):
    product, sol1 = solve_for(prog1, ["lockset", "threadflag"])
    product, sol2 = solve_for(prog1, ["lockset", "threadflag"])
    a = json.dumps(solution_json(sol1), sort_keys=True)
    b = json.dumps(solution_json(sol2), sort_keys=True)
    assert a == b
    payload = solution_json(sol1)
    assert payload["version"] == 1
    assert payload["races"]["g"][0]["site"] == "main.s0"


def test_json_dump_golden_small_program():
    p = instrument_atomicity(parse_program("global g\n\nmain:\n  g = 1\n"))
    product, sol = solve_for(p, ["lockset"])
    assert solution_json(sol) == {
        "version": 1,
        "pp": {
            "main.0": ["({})"],
            "main.1": ["({})"],
            "main.i0": ["({})"],
            "main.s0": ["({m_g})"],
            "main.t0": ["({m_g})"],
            "main.x0": ["({})"],
        },
        "obs": {
            "exit": ["({})"],
            "init m_g": ["({})"],
            "unlock m_g": ["({})"],
        },
        "races": {"g": [{"site": "main.s0", "type": "W", "digest": "({})"}]},
    }
