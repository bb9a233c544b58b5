"""Program model for the analyzed concurrent CFG language.

A program is a family of uniquely-labeled thread prototypes, each a
control-flow graph over typed actions: mutex init/lock/unlock, thread
create/join, reads and writes of global variables, once-control actions
(initO/startO/endO and the pos/neg ran guards), skip, and an implicit
thread-exit at every sink.  Accesses to a global ``g`` are instrumented
with a reserved atomicity mutex ``m_g`` so that all cross-thread
communication happens through lock/unlock pairs.
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter

# Action kinds, partitioned by how they communicate between threads.
OBSERVABLE_KINDS = frozenset({"init", "unlock", "endO", "initO", "exit"})
OBSERVING_KINDS = frozenset({"lock", "startO", "join"})
CREATING_KINDS = frozenset({"create"})
LOCAL_KINDS = frozenset({"read", "write", "skip", "pos_ran", "neg_ran"})
ALL_KINDS = OBSERVABLE_KINDS | OBSERVING_KINDS | CREATING_KINDS | LOCAL_KINDS

WRITE = "W"
READ = "R"

RESERVED_MUTEX_PREFIX = "m_"

# A thread instance is named by its creation history: a tuple of
# (create-edge id, occurrence) pairs, the occurrence telling apart repeated
# creates through the same edge.
InstanceId = tuple  # tuple[tuple[str, int], ...]; main is ()

MAIN: InstanceId = ()
MAIN_LABEL = "main"  # the prototype main runs


def edge_path(instance: InstanceId) -> tuple[str, ...]:
    """Creation path of an instance without occurrence counters."""
    return tuple(ce for ce, _ in instance)


class ValidationError(Exception):
    """A structurally ill-formed program (duplicate nodes, unknown names, ...)."""


_set = object.__setattr__


class Value:
    """Base of the immutable slotted values whose equality skips a field or
    whose hash is kept.  A subclass names its fields in ``_fields`` (and
    ``__slots__``), sets each once in ``__init__`` through ``_set``, and
    compares over ``_compared``, an attrgetter of the fields equality
    reads.  ``_hash`` is the hash of those fields, computed once: sets and
    dicts hash the oracle's events, which hash their edges, which hash
    their actions, over and over."""

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Action(Value):
    """One CFG action.

    ``target`` holds the mutex / once variable / global / joined create-edge
    id depending on the kind; ``local`` the local variable of an access;
    ``create_id`` the identifier naming a create edge (referenced by join).
    """

    __slots__ = _fields = ("kind", "target", "local", "create_id")
    _compared = attrgetter(*_fields)

    def __init__(self, kind: str, target: str | None = None, local: str | None = None,
                 create_id: str | None = None) -> None:
        if kind not in ALL_KINDS:
            raise ValidationError(f"unknown action kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "target", target)
        _set(self, "local", local)
        _set(self, "create_id", create_id)
        _set(self, "_hash", hash((kind, target, local, create_id)))

    @property
    def is_observable(self) -> bool:
        return self.kind in OBSERVABLE_KINDS

    @property
    def is_observing(self) -> bool:
        return self.kind in OBSERVING_KINDS

    @property
    def is_creating(self) -> bool:
        return self.kind in CREATING_KINDS

    def obs_key(self) -> tuple[str, str | None]:
        """Key identifying an observable action including its argument."""
        if self.kind == "exit":
            return ("exit", None)
        return (self.kind, self.target)

    def observed_keys(self) -> tuple[tuple[str, str | None], ...]:
        """Observable keys an observing action may pair with."""
        if self.kind == "lock":
            return (("unlock", self.target), ("init", self.target))
        if self.kind == "startO":
            return (("endO", self.target), ("initO", self.target))
        if self.kind == "join":
            return (("exit", None),)
        raise ValidationError(f"{self.kind} is not an observing action")


class Edge(Value):
    """``source --action--> target``.  ``line``, the source line of the
    originating DSL text, is ignored by equality and hash so that printing
    and re-parsing a program yields an equal model."""

    __slots__ = _fields = ("source", "action", "target", "line")
    _compared = attrgetter("source", "action", "target")

    def __init__(self, source: str, action: Action, target: str, line: int | None = None) -> None:
        _set(self, "source", source)
        _set(self, "action", action)
        _set(self, "target", target)
        _set(self, "line", line)
        _set(self, "_hash", hash((source, action, target)))


class ThreadPrototype(namedtuple("ThreadPrototype", "start_node edges")):
    """A CFG (a frozenset of edges) entered at ``start_node``; its label is
    its key in ``Program.prototypes``."""

    __slots__ = ()

    def nodes(self) -> set[str]:
        out = {self.start_node}
        for e in self.edges:
            out.add(e.source)
            out.add(e.target)
        return out


class Program(Value):
    """The thread prototypes by label (main's is ``MAIN_LABEL``) and the
    declared names.  Its edges are sorted and indexed once, on first use."""

    _fields = ("prototypes", "globals", "mutexes", "once_vars")
    __slots__ = _fields + ("_edges", "_by_source", "_by_target")
    _compared = attrgetter(*_fields)

    def __init__(self, prototypes: dict[str, ThreadPrototype], globals: frozenset[str],
                 mutexes: frozenset[str], once_vars: frozenset[str]) -> None:
        _set(self, "prototypes", prototypes)
        _set(self, "globals", globals)
        _set(self, "mutexes", mutexes)
        _set(self, "once_vars", once_vars)
        # the prototypes dict is hashed by its labels
        _set(self, "_hash", hash((frozenset(prototypes), globals, mutexes)))
        _set(self, "_edges", None)
        _set(self, "_by_source", None)
        _set(self, "_by_target", None)

    def main(self) -> ThreadPrototype:
        return self.prototypes[MAIN_LABEL]

    def all_edges(self) -> tuple[Edge, ...]:
        """Every edge, by prototype label and then ``sorted_edges``; sorted
        once per program."""
        if self._edges is None:
            _set(self, "_edges", tuple(
                e for label in sorted(self.prototypes)
                for e in sorted_edges(self.prototypes[label].edges)))
        return self._edges

    def edges_from(self, node: str) -> list[Edge]:
        if self._by_source is None:
            _set(self, "_by_source", _index(self.all_edges(), attrgetter("source")))
        return self._by_source.get(node, [])

    def edges_to(self, node: str) -> list[Edge]:
        if self._by_target is None:
            _set(self, "_by_target", _index(self.all_edges(), attrgetter("target")))
        return self._by_target.get(node, [])


def _index(edges, key) -> dict[str, list[Edge]]:
    out: dict[str, list[Edge]] = {}
    for e in edges:
        out.setdefault(key(e), []).append(e)
    return out


def action_sort_key(a: Action) -> tuple:
    return (a.kind, a.target or "", a.local or "", a.create_id or "")


def sorted_edges(edges) -> list[Edge]:
    return sorted(edges, key=lambda e: (e.source, action_sort_key(e.action), e.target))


def atomicity_mutex(glob: str) -> str:
    return RESERVED_MUTEX_PREFIX + glob


def is_atomicity_mutex(mutex: str) -> bool:
    return mutex.startswith(RESERVED_MUTEX_PREFIX)


def validate_program(p: Program) -> Program:
    """Check the structural invariants; returns ``p`` or raises ValidationError."""
    if MAIN_LABEL not in p.prototypes:
        raise ValidationError("program has no 'main' prototype")
    seen_nodes: dict[str, str] = {}
    create_ids: dict[str, str] = {}
    for label, proto in p.prototypes.items():
        for n in proto.nodes():
            if n in seen_nodes and seen_nodes[n] != label:
                raise ValidationError(f"node {n!r} appears in prototypes {seen_nodes[n]!r} and {label!r}")
            seen_nodes[n] = label
        for e in proto.edges:
            if e.target == proto.start_node:
                raise ValidationError(f"start node {proto.start_node!r} of {label!r} has an incoming edge")
        # connectivity from the start node
        reached = {proto.start_node}
        frontier = [proto.start_node]
        by_src: dict[str, list[Edge]] = {}
        for e in proto.edges:
            by_src.setdefault(e.source, []).append(e)
        while frontier:
            u = frontier.pop()
            for e in by_src.get(u, ()):
                if e.target not in reached:
                    reached.add(e.target)
                    frontier.append(e.target)
        unreachable = proto.nodes() - reached
        if unreachable:
            raise ValidationError(f"unreachable nodes in {label!r}: {sorted(unreachable)}")
        for e in proto.edges:
            a = e.action
            # an exited instance takes no further step, so an exit ends at a sink
            if a.kind == "exit" and e.target in by_src:
                line = f" (line {e.line})" if e.line is not None else ""
                raise ValidationError(f"code after thread_exit in {label!r}{line}")
            # one main instance does every init, so no mutex (once) has two
            if a.kind in ("init", "initO") and label != MAIN_LABEL:
                raise ValidationError(f"{a.kind} {a.target} in {label!r}: only main may init")
            if a.kind == "create":
                if a.target not in p.prototypes:
                    raise ValidationError(f"create of unknown prototype {a.target!r}")
                if a.target == MAIN_LABEL:
                    raise ValidationError(f"create of main in {label!r}: main runs once")
                if a.create_id is None:
                    raise ValidationError("create edge without an id")
                if a.create_id in create_ids:
                    raise ValidationError(f"duplicate create-edge id {a.create_id!r}")
                create_ids[a.create_id] = label
            elif a.kind in ("read", "write"):
                if a.target not in p.globals:
                    raise ValidationError(f"access to undeclared global {a.target!r}")
            elif a.kind in ("init", "lock", "unlock"):
                if a.target not in p.mutexes:
                    raise ValidationError(f"use of undeclared mutex {a.target!r}")
            elif a.kind in ("initO", "startO", "endO", "pos_ran", "neg_ran"):
                if a.target not in p.once_vars:
                    raise ValidationError(f"use of undeclared once variable {a.target!r}")
    for e in [e for e in p.all_edges() if e.action.kind == "join"]:
        if e.action.target not in create_ids:
            raise ValidationError(f"join of unknown create-edge id {e.action.target!r}")
    return p


def instrument_atomicity(p: Program) -> Program:
    """Wrap every global access in lock/unlock of its atomicity mutex.

    Each access edge ``(u, chi, v)`` becomes the three-edge sequence
    ``(u, lock m_g, s) . (s, chi, t) . (t, unlock m_g, v)`` with fresh nodes
    ``s`` (the access site) and ``t``, and an ``init m_g`` prologue for every
    global is prepended to main.  Rejects programs that already mention a
    reserved ``m_*`` mutex, which also makes double instrumentation an error.
    """
    for e in p.all_edges():
        if e.action.kind in ("init", "lock", "unlock") and is_atomicity_mutex(e.action.target):
            raise ValidationError(f"reserved mutex {e.action.target!r} used in source")

    new_protos: dict[str, ThreadPrototype] = {}
    for label in sorted(p.prototypes):
        proto = p.prototypes[label]
        edges: list[Edge] = []
        counter = 0
        for e in sorted_edges(proto.edges):
            if e.action.kind in ("read", "write"):
                mg = atomicity_mutex(e.action.target)
                site = f"{label}.s{counter}"
                post = f"{label}.t{counter}"
                counter += 1
                edges.append(Edge(e.source, Action("lock", mg), site, line=e.line))
                edges.append(Edge(site, e.action, post, line=e.line))
                edges.append(Edge(post, Action("unlock", mg), e.target, line=e.line))
            else:
                edges.append(e)
        start = proto.start_node
        if label == MAIN_LABEL:
            prologue: list[Edge] = []
            cur = "main.i0"
            for i, g in enumerate(sorted(p.globals)):
                nxt = f"main.i{i + 1}" if i + 1 < len(p.globals) else proto.start_node
                prologue.append(Edge(cur, Action("init", atomicity_mutex(g)), nxt))
                cur = nxt
            if prologue:
                start = "main.i0"
                edges.extend(prologue)
        new_protos[label] = ThreadPrototype(start, frozenset(edges))

    out = Program(
        prototypes=new_protos,
        globals=p.globals,
        mutexes=p.mutexes | frozenset(atomicity_mutex(g) for g in p.globals),
        once_vars=p.once_vars,
    )
    return validate_program(out)


def access_sites(p: Program) -> list[tuple[str, str, str]]:
    """All access sites of an instrumented program as (node, global, W/R).

    The site is the source node of the access edge, i.e. the point between
    locking and unlocking the atomicity mutex.
    """
    out = []
    for e in p.all_edges():
        if e.action.kind in ("read", "write"):
            out.append((e.source, e.action.target, WRITE if e.action.kind == "write" else READ))
    return sorted(out)


def access_sequence(p: Program, site: str) -> tuple[Edge, Edge, Edge]:
    """The (lock m_g, access of g, unlock m_g) edges at ``site``: the lock the
    only edge into it, the others the only edges out of their sources.  Else
    (say, in a program not instrumented) raises ValidationError."""
    into, out = p.edges_to(site), p.edges_from(site)
    if len(into) == len(out) == 1 and out[0].action.kind in ("read", "write"):
        mg = atomicity_mutex(out[0].action.target)
        after = p.edges_from(out[0].target)
        if ([(e.action.kind, e.action.target) for e in (*into, *after)]
                == [("lock", mg), ("unlock", mg)]):
            return into[0], out[0], after[0]
    raise ValidationError(f"{site!r} is not an access site")


def fmt_action(a: Action) -> str:
    if a.kind == "read":
        return f"{a.local} = {a.target}"
    if a.kind == "write":
        return f"{a.target} = {a.local}"
    if a.kind == "create":
        return f"create {a.target} as {a.create_id}"
    if a.kind == "join":
        return f"join {a.target}"
    if a.kind == "pos_ran":
        return f"pos ran {a.target}"
    if a.kind == "neg_ran":
        return f"neg ran {a.target}"
    if a.kind == "exit":
        return "thread_exit"
    if a.kind == "skip":
        return "skip"
    return f"{a.kind} {a.target}"
