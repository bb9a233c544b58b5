"""Fixed pure-Python work that measures how fast the machine is right now.

    python3 perfbench/calibrate.py

It imports nothing from racedigest, so no change to the program can move
its time.  The benchmark runs it in a fresh interpreter next to every
operation and divides operation times by its time, which cancels much of
the drift in machine speed that other tenants of a shared host cause.  It
mixes two kinds of work because they slow down differently under
contention: lookups (frozen dataclasses hashed into sets and dicts, tuple
sorting), as in the solver and detector, and history building (frozensets
of events growing step by step, deep hashing), as in the oracle.  Together
they tracked analyze, oracle and conform times better than either alone.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Node:
    kind: str
    target: str
    index: int


@dataclass(frozen=True)
class Event:
    instance: tuple
    index: int
    node: Node


def lookups(rounds: int = 2) -> int:
    total = 0
    for r in range(rounds):
        seen: set[Node] = set()
        by_kind: dict[str, list[Node]] = {}
        for i in range(4000):
            node = Node(("lock", "read", "write", "unlock")[i % 4], f"g{i % 37}", (i * r) % 211)
            if node not in seen:
                seen.add(node)
                by_kind.setdefault(node.kind, []).append(node)
        for nodes in by_kind.values():
            nodes.sort(key=lambda n: (n.target, n.index))
            total += len({(a.target, b.index) for a, b in zip(nodes, nodes[1:])})
    return total


def histories(rounds: int = 3, steps: int = 2500) -> int:
    total = 0
    for _ in range(rounds):
        events = [
            Event(("main", i % 7), i, Node(("lock", "write", "read")[i % 3], f"g{i % 13}", i))
            for i in range(steps)
        ]
        states = set()
        past: frozenset = frozenset()
        for e in events:
            past = past | {e} if len(past) < 40 else frozenset({e})
            states.add((e.index % 50, past))
        ancestors = {e: frozenset(events[max(0, e.index - 20):e.index]) for e in events[:600]}
        total += len(states) + sum(map(len, ancestors.values()))
    return total


if __name__ == "__main__":
    print(lookups() + histories())
