"""Seeded generators for the two benchmark program families.

Both generators return ``.rlp`` source text; the same seed and size always
give the same bytes.  Next to each family sits its analytic racy set: the
ground truth derived from the family's structure through
``model.access_sites``, never from the oracle.

* locked family (``locked_program``): N threads, K globals, B blocks per
  thread.  Each block is ``lock a_m; g_w = c; x = g_r; unlock a_m`` and
  every third block is wrapped in a ``once`` block on a variable of its
  own.  ``main`` initializes every mutex and once variable, creates all
  threads and joins them.  The seed picks the mutex and the two globals of
  each block, balanced so that every mutex and global is used equally
  often, which keeps the cost of different seeds close together.
* interleave family (``interleave_program``): ``main`` initializes mutex
  ``a``, creates N copies of worker ``w`` and then writes ``h`` with no
  lock.  Each worker does B steps alternating a write of ``g`` under ``a``
  with an unlocked read of ``h``.  The seed picks identifier suffixes and
  written constants only, so every seed has the same interleavings.
"""

from __future__ import annotations

import json
import random

from racedigest.model import WRITE, access_sites, is_atomicity_mutex

LOCKED_MUTEXES = 3


def _balanced(rng: random.Random, values: int, count: int) -> list[int]:
    out = [i % values for i in range(count)]
    rng.shuffle(out)
    return out


def locked_program(n: int, k: int, b: int, seed: int) -> str:
    rng = random.Random(f"locked/{n}/{k}/{b}/{seed}")
    mutexes = _balanced(rng, LOCKED_MUTEXES, n * b)
    writes = _balanced(rng, k, n * b)
    reads = _balanced(rng, k, n * b)
    onces = [f"o{i}_{j}" for i in range(n) for j in range(b) if j % 3 == 2]
    lines = [f"# locked family N={n} K={k} B={b} seed={seed}"]
    lines += [f"global g{i}" for i in range(k)]
    lines += [f"mutex a{i}" for i in range(LOCKED_MUTEXES)]
    lines += [f"once {o}" for o in onces]
    lines += ["", "main:"]
    lines += [f"  init a{i}" for i in range(LOCKED_MUTEXES)]
    lines += [f"  initO {o}" for o in onces]
    lines += [f"  create t{i} as e{i}" for i in range(n)]
    lines += [f"  join e{i}" for i in range(n)]
    for i in range(n):
        lines += ["", f"t{i}:"]
        for j in range(b):
            slot = i * b + j
            block = [
                f"lock a{mutexes[slot]}",
                f"g{writes[slot]} = {rng.randrange(10)}",
                f"x = g{reads[slot]}",
                f"unlock a{mutexes[slot]}",
            ]
            if j % 3 == 2:
                block = [f"once o{i}_{j}"] + ["  " + s for s in block] + ["end"]
            lines += ["  " + s for s in block]
    return "\n".join(lines) + "\n"


def interleave_program(n: int, b: int, seed: int) -> str:
    rng = random.Random(f"interleave/{n}/{b}/{seed}")
    g, h, a = (f"{stem}{rng.randrange(100)}" for stem in ("g", "h", "a"))
    lines = [f"# interleave family N={n} B={b} seed={seed}"]
    lines += [f"global {g}", f"global {h}", f"mutex {a}", "", "main:", f"  init {a}"]
    lines += [f"  create w as c{i}" for i in range(n)]
    lines += [f"  {h} = {rng.randrange(10)}", "", "w:"]
    for step in range(b):
        if step % 2 == 0:
            lines += [f"  lock {a}", f"  {g} = {rng.randrange(10)}", f"  unlock {a}"]
        else:
            lines += [f"  x = {h}"]
    return "\n".join(lines) + "\n"


def _site_pair(glob: str, a: tuple[str, str], b: tuple[str, str]) -> tuple:
    lo, hi = sorted((a, b))
    return (glob, lo, hi)


def _proto_of(program) -> dict[str, str]:
    return {
        node: label
        for label, proto in program.prototypes.items()
        for node in proto.nodes()
    }


def _user_mutex(program, site: str) -> str:
    """The user mutex whose lock most closely precedes an access site."""
    node = site
    while True:
        (edge,) = program.edges_to(node)
        act = edge.action
        if act.kind == "lock" and not is_atomicity_mutex(act.target):
            return act.target
        node = edge.source


def locked_racy(program) -> set[tuple]:
    """Two accesses race exactly when they lie in different threads, touch
    the same global, at least one writes, and their blocks hold different
    mutexes: each once variable belongs to one block, so it never orders
    anything, and no thread synchronizes with another by other means."""
    proto = _proto_of(program)
    sites = [(s, g, t, proto[s], _user_mutex(program, s)) for s, g, t in access_sites(program)]
    out = set()
    for i, (s0, g0, t0, p0, m0) in enumerate(sites):
        for s1, g1, t1, p1, m1 in sites[i + 1:]:
            if g0 == g1 and p0 != p1 and m0 != m1 and WRITE in (t0, t1):
                out.add(_site_pair(g0, (s0, t0), (s1, t1)))
    return out


def interleave_racy(program) -> set[tuple]:
    """Every pair of main's unlocked write of h with a read of h in ``w``:
    the writes of g are all under one mutex, and reads never race reads."""
    proto = _proto_of(program)
    sites = access_sites(program)
    writes = [(s, g) for s, g, t in sites if proto[s] == "main" and t == WRITE]
    (main_site, h), = writes
    return {
        _site_pair(h, (main_site, WRITE), (s, t))
        for s, g, t in sites
        if g == h and proto[s] == "w"
    }


def expected_json(name: str, racy: set[tuple], depth: int, width: int) -> str:
    """``expected.json`` for a generated conform case; ``provenance`` records
    that the truth is analytic."""
    payload = {
        "bounds": {"depth": depth, "width": width},
        "name": name,
        "provenance": "generated",
        "race_free_subsets": [],
        "racy": [
            {"global": g, "a": {"site": a[0], "type": a[1]}, "b": {"site": b[0], "type": b[1]}}
            for g, a, b in sorted(racy)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
