from __future__ import annotations

from pathlib import Path

import pytest

from racedigest.conformance import load_corpus
from racedigest.dsl import parse_program
from racedigest.model import instrument_atomicity
from racedigest.oracle import enumerate_traces

from perfbench.gen import interleave_program, locked_program

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"

# seeded benchmark programs small enough to enumerate exhaustively
GENERATED = {
    **{f"interleave-2x2-s{seed}": interleave_program(2, 2, seed) for seed in range(3)},
    **{f"locked-2/1/1-s{seed}": locked_program(2, 1, 1, seed) for seed in range(3)},
}

# main exits before it creates t and writes g: rejected, as no instance
# steps past its exit
CODE_AFTER_EXIT = "global g\n\nmain:\n  thread_exit\n  create t as e1\n  g = 1\n\nt:\n  g = 2\n"

# t1 completes o, then hands the mutex a to t2, whose `pos ran o` passes
# on that completion; main's write races with t2's
ONCE_HANDOFF = """\
global g
mutex a
once o

main:
  init a
  initO o
  create t1 as e1
  create t2 as e2
  g = 1

t1:
  once o
    skip
  end
  lock a
  unlock a

t2:
  lock a
  unlock a
  pos ran o
  g = 2
"""


def solution_json(sol) -> dict:
    """A solver ``Solution`` as sorted JSON data: per node, per observable
    key and per global, its digest values in format order."""
    fmt = sol.system.digest.format_elem
    pp = {node: sorted(fmt(e) for e in elems) for node, elems in sorted(sol.pp.items())}
    obs = {
        f"{kind} {target}" if target else kind: sorted(fmt(e) for e in elems)
        for (kind, target), elems in sorted(
            sol.obs.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
        )
    }
    races = {
        glob: [
            {"site": r.site, "type": r.type, "digest": fmt(r.digest)}
            for r in sorted(recs, key=lambda r: (r.site, r.type, fmt(r.digest)))
        ]
        for glob, recs in sorted(sol.races.items())
    }
    return {"version": 1, "pp": pp, "obs": obs, "races": races}


def corpus_program(name: str):
    text = (CORPUS_DIR / name / "program.rlp").read_text(encoding="utf-8")
    return instrument_atomicity(parse_program(text))


@pytest.fixture(scope="session")
def corpus_cases():
    return load_corpus(CORPUS_DIR)


@pytest.fixture(scope="session")
def prog1():
    return corpus_program("prog1_running_example")


@pytest.fixture(scope="session")
def prog0():
    return corpus_program("prog0_unsync_writes")


@pytest.fixture(scope="session")
def once_prog():
    return corpus_program("once_device_init")


@pytest.fixture(scope="session")
def prog1_traces(prog1):
    return enumerate_traces(prog1, depth=40, width=4)


@pytest.fixture(scope="session")
def prog0_traces(prog0):
    return enumerate_traces(prog0, depth=40, width=4)
