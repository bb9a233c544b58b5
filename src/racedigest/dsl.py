"""Parser and printer for the ``.rlp`` program DSL.

The surface syntax is line-oriented: header declarations (``global g``,
``mutex a``, ``once o``) followed by prototype bodies introduced by
``name:``.  Bodies are sequential action lines; control flow uses
``label L`` / ``goto L1 [L2 ...]`` (multiple targets fork
nondeterministically) and the guards ``pos ran o`` / ``neg ran o``.
A ``once o`` ... ``end`` block is lowered into startO, a pos/neg branch on
ran with the body on the neg side, and endO on the join node.

The printer emits a canonical explicit-edge form (header ``name @ start:``,
lines ``src: action -> dst``) which parses back to an equal Program, so the
two can round-trip instrumented programs as well.
"""

from __future__ import annotations

import re

from .model import (
    MAIN_LABEL,
    Action,
    atomicity_mutex,
    Edge,
    Program,
    ThreadPrototype,
    fmt_action,
    is_atomicity_mutex,
    sorted_edges,
    validate_program,
)


class DslSyntaxError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}:1: {message}")
        self.line = line


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_NODE = r"[A-Za-z0-9_.@~$]+"
_DECL_RE = re.compile(rf"^(global|mutex|once)\s+({_IDENT})$")
_PROTO_RE = re.compile(rf"^({_IDENT})\s*(?:@\s*({_NODE})\s*)?:$")
_EDGE_RE = re.compile(rf"^({_NODE})\s*:\s*(.*?)\s*->\s*({_NODE})$")
_ASSIGN_RE = re.compile(rf"^({_IDENT}|\d+)\s*=\s*({_IDENT}|\d+)$")


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


class _ProtoBuilder:
    """Accumulates one prototype; sugared bodies use integer nodes that are
    merged through a union-find when labels bind them together."""

    def __init__(self, label: str, explicit_start: str | None):
        self.label = label
        self.explicit = explicit_start is not None
        self.explicit_start = explicit_start
        self.edges: list[tuple[int | str, Action, int | str, int]] = []
        self.parent: dict[int, int] = {}
        self.labels: dict[str, int] = {}
        self.placed: dict[str, int] = {}  # label -> line placing it
        self.jumped: dict[str, int] = {}  # label -> line of the first goto to it
        self.counter = 0
        self.current = self._fresh()
        self.create_counter = 0

    def _fresh(self) -> int:
        n = self.counter
        self.counter += 1
        self.parent[n] = n
        return n

    def find(self, n: int) -> int:
        while self.parent[n] != n:
            self.parent[n] = self.parent[self.parent[n]]
            n = self.parent[n]
        return n

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def label_node(self, name: str) -> int:
        if name not in self.labels:
            self.labels[name] = self._fresh()
        return self.labels[name]

    def place(self, name: str, line: int) -> None:
        if name in self.placed:
            raise DslSyntaxError(
                f"label {name!r} placed twice in {self.label!r} (first at line {self.placed[name]})",
                line)
        self.placed[name] = line
        self.union(self.current, self.label_node(name))

    def jump(self, names: list[str], line: int) -> None:
        src = self.current
        for name in names:
            self.jumped.setdefault(name, line)
            self.branch(Action("skip"), src, self.label_node(name), line)
        self.current = self._fresh()  # fall-through is dead unless labeled

    def emit(self, action: Action, line: int, target: int | None = None) -> None:
        dst = self._fresh() if target is None else target
        self.edges.append((self.current, action, dst, line))
        self.current = dst

    def branch(self, action: Action, src: int, dst: int, line: int) -> None:
        self.edges.append((src, action, dst, line))

    def finish(self) -> ThreadPrototype:
        for name, line in self.jumped.items():
            if name not in self.placed:
                raise DslSyntaxError(f"goto to label {name!r}, never placed in {self.label!r}",
                                     line)
        if self.explicit:
            edges = frozenset(
                Edge(str(s), a, str(t), line=ln) for (s, a, t, ln) in self.edges
            )
            return ThreadPrototype(self.explicit_start, edges)
        # canonical names for union-find roots, in first-appearance order
        names: dict[int, str] = {}

        def name_of(n: int) -> str:
            r = self.find(n)
            if r not in names:
                names[r] = f"{self.label}.{len(names)}"
            return names[r]

        name_of(0)  # the start node
        edges = frozenset(
            Edge(name_of(s), a, name_of(t), line=ln) for (s, a, t, ln) in self.edges
        )
        return ThreadPrototype(names[self.find(0)], edges)


def _parse_action(text: str, lineno: int, declared: dict[str, set[str]],
                  builder: _ProtoBuilder, used_create_ids: set[str],
                  explicit: bool) -> Action:
    toks = text.split()
    kw = toks[0]
    if kw in ("init", "lock", "unlock") and len(toks) == 2:
        # Reserved atomicity mutexes appear only in the machine (explicit) form.
        if is_atomicity_mutex(toks[1]) and not explicit:
            raise DslSyntaxError(f"mutex name {toks[1]!r} is reserved", lineno)
        return Action(kw, toks[1])
    if kw in ("initO", "startO", "endO") and len(toks) == 2:
        return Action(kw, toks[1])
    if kw in ("pos", "neg") and len(toks) == 3 and toks[1] == "ran":
        return Action("pos_ran" if kw == "pos" else "neg_ran", toks[2])
    if kw == "skip" and len(toks) == 1:
        return Action("skip")
    if kw == "thread_exit" and len(toks) == 1:
        return Action("exit")
    if kw == "join" and len(toks) == 2:
        return Action("join", toks[1])
    if kw == "create" and len(toks) in (2, 4):
        if len(toks) == 4:
            if toks[2] != "as":
                raise DslSyntaxError("expected 'create <proto> [as <id>]'", lineno)
            cid = toks[3]
        else:
            cid = f"{builder.label}.c{builder.create_counter}"
            builder.create_counter += 1
        if cid in used_create_ids:
            raise DslSyntaxError(f"duplicate create-edge id {cid!r}", lineno)
        used_create_ids.add(cid)
        return Action("create", toks[1], create_id=cid)
    m = _ASSIGN_RE.match(text)
    if m:
        lhs, rhs = m.group(1), m.group(2)
        if lhs in declared["global"]:
            return Action("write", lhs, local=rhs)
        if rhs in declared["global"]:
            return Action("read", rhs, local=lhs)
        raise DslSyntaxError("assignment must read or write a declared global", lineno)
    raise DslSyntaxError(f"cannot parse action {text!r}", lineno)


def parse_program(text: str) -> Program:
    """Parse DSL source into a validated Program.

    Raises DslSyntaxError with position information for malformed input and
    model.ValidationError for structurally invalid programs.
    """
    declared: dict[str, set[str]] = {"global": set(), "mutex": set(), "once": set()}
    builders: list[_ProtoBuilder] = []
    used_create_ids: set[str] = set()
    once_stack: list[tuple[int, str, int]] = []  # (join node, once var, start line)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        m = _PROTO_RE.match(line)
        if m:
            if once_stack:
                raise DslSyntaxError("unterminated 'once' block", lineno)
            if any(b.label == m.group(1) for b in builders):
                raise DslSyntaxError(f"duplicate prototype {m.group(1)!r}", lineno)
            builders.append(_ProtoBuilder(m.group(1), m.group(2)))
            continue
        m = _DECL_RE.match(line)
        if m and not builders:
            kind, name = m.group(1), m.group(2)
            if kind == "mutex" and is_atomicity_mutex(name):
                raise DslSyntaxError(f"mutex name {name!r} is reserved", lineno)
            declared[kind].add(name)
            continue
        if not builders:
            raise DslSyntaxError("statement outside a prototype", lineno)
        b = builders[-1]

        m = _EDGE_RE.match(line)
        if m:
            if not b.explicit:
                raise DslSyntaxError("explicit edges need a 'name @ start:' header", lineno)
            action = _parse_action(m.group(2), lineno, declared, b, used_create_ids, explicit=True)
            b.edges.append((m.group(1), action, m.group(3), lineno))
            continue
        if b.explicit:
            raise DslSyntaxError("explicit prototypes allow only 'src: action -> dst' lines", lineno)

        toks = line.split()
        if toks[0] == "label" and len(toks) == 2:
            b.place(toks[1], lineno)
            continue
        if toks[0] == "goto" and len(toks) >= 2:
            b.jump(toks[1:], lineno)
            continue
        if toks[0] == "once" and len(toks) == 2:
            o = toks[1]
            b.emit(Action("startO", o), lineno)
            branch_node = b.current
            join_node = b._fresh()
            b.branch(Action("pos_ran", o), branch_node, join_node, lineno)
            body_start = b._fresh()
            b.branch(Action("neg_ran", o), branch_node, body_start, lineno)
            b.current = body_start
            once_stack.append((join_node, o, lineno))
            continue
        if toks[0] == "end" and len(toks) == 1:
            if not once_stack:
                raise DslSyntaxError("'end' without matching 'once'", lineno)
            join_node, o, _ = once_stack.pop()
            b.branch(Action("skip"), b.current, join_node, lineno)
            b.current = join_node
            b.emit(Action("endO", o), lineno)
            continue
        action = _parse_action(line, lineno, declared, b, used_create_ids, explicit=False)
        b.emit(action, lineno)

    if once_stack:
        raise DslSyntaxError("unterminated 'once' block", once_stack[-1][2])

    prototypes = {b.label: _append_exits(b.label, b.finish()) for b in builders}
    # Atomicity mutexes are part of the model for every global, though only
    # the machine form may mention them in edges.
    mutexes = frozenset(declared["mutex"]) | frozenset(
        atomicity_mutex(g) for g in declared["global"]
    )
    program = Program(
        prototypes=prototypes,
        globals=frozenset(declared["global"]),
        mutexes=mutexes,
        once_vars=frozenset(declared["once"]),
    )
    return validate_program(program)


def _append_exits(label: str, proto: ThreadPrototype) -> ThreadPrototype:
    """Append an observable thread-exit edge at every sink node of ``label``."""
    sources = {e.source for e in proto.edges}
    exit_targets = {e.target for e in proto.edges if e.action.kind == "exit"}
    edges = list(proto.edges)
    counter = 0
    sinks = sorted(proto.nodes() - sources)
    for n in sinks:
        if n in exit_targets:
            continue
        edges.append(Edge(n, Action("exit"), f"{label}.x{counter}"))
        counter += 1
    return ThreadPrototype(proto.start_node, frozenset(edges))


def print_program(p: Program) -> str:
    """Canonical explicit-edge DSL serialization; parse(print(p)) == p."""
    lines: list[str] = []
    for g in sorted(p.globals):
        lines.append(f"global {g}")
    for m in sorted(p.mutexes):
        if not is_atomicity_mutex(m):
            lines.append(f"mutex {m}")
    for o in sorted(p.once_vars):
        lines.append(f"once {o}")
    order = [MAIN_LABEL] + sorted(lbl for lbl in p.prototypes if lbl != MAIN_LABEL)
    for label in order:
        proto = p.prototypes[label]
        lines.append("")
        lines.append(f"{label} @ {proto.start_node}:")
        for e in sorted_edges(proto.edges):
            lines.append(f"  {e.source}: {fmt_action(e.action)} -> {e.target}")
    return "\n".join(lines) + "\n"
