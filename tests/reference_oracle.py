"""The bounded enumerator and the race search as they stood before events
were interned: states hold frozensets of events and dep edges and a past
per event, local traces are collected per state, and ancestry is the
repeat-until-stable ``ancestors`` loop.  Kept only as the reference the
interned oracle, which records each trace as its search reaches it and
holds each as bitmasks over one table, is compared against by content:
pomsets and traces here are frozensets of events and deps.  Also the
scan-based walks over one pomset (program-order predecessor, incoming
dependency), a causal order of an event set, the history of a trace read
off its events and deps by definition, the two steps of a local trace on
frozensets (over a non-observing edge, and the merge at an observing
edge), against which the steps the oracle's search records are checked,
and the structural check of a local trace, which only tests use."""

from __future__ import annotations

from dataclasses import dataclass, field

from racedigest.model import MAIN, READ, WRITE, Edge, InstanceId, Program, atomicity_mutex
from racedigest.oracle import DepEdge, Event, History, RacePair


@dataclass(frozen=True)
class Pomset:
    events: frozenset
    deps: frozenset


@dataclass(frozen=True)
class Trace:
    """A local trace as its event and dep sets."""

    events: frozenset
    deps: frozenset
    top: Event
    history: History = field(compare=False)

    @property
    def ego(self) -> InstanceId:
        return self.top.instance

    def ego_node(self) -> str:
        return self.top.node


@dataclass(frozen=True)
class Enumeration:
    pomsets: frozenset
    truncated: bool
    traces: frozenset


def content(x) -> tuple:
    """What a pomset or local trace holds, of either oracle: its events and
    deps, and a trace's top and history."""
    if hasattr(x, "top"):
        return (x.events, x.deps, x.top, x.history)
    return (x.events, x.deps)


def ancestors(events, deps) -> dict[Event, frozenset[Event]]:
    """Reflexive-transitive predecessor sets over program order plus deps."""
    preds: dict[Event, list[Event]] = {e: [] for e in events}
    by_key = {(e.instance, e.index): e for e in events}
    for e in events:
        if e.index > 0:
            pred = by_key.get((e.instance, e.index - 1))
            if pred is not None:
                preds[e].append(pred)
    for d in deps:
        if d.dst in preds and d.src in preds:
            preds[d.dst].append(d.src)
    out: dict[Event, frozenset[Event]] = {}
    remaining = dict(preds)
    while remaining:
        progressed = False
        for e in list(remaining):
            if all(p in out for p in remaining[e]):
                acc = {e}
                for p in remaining[e]:
                    acc |= out[p]
                out[e] = frozenset(acc)
                del remaining[e]
                progressed = True
        if not progressed:
            raise ValueError("cycle in causality order")
    return out


def pomset_ancestors(pom) -> dict:
    return ancestors(pom.events, pom.deps)


def po_pred(pom, e: Event) -> Event | None:
    if e.index == 0:
        return None
    for ev in pom.events:
        if ev.instance == e.instance and ev.index == e.index - 1:
            return ev
    raise ValueError(f"missing program-order predecessor of {e.describe()}")


def dep_to(pom, e: Event) -> DepEdge | None:
    for d in pom.deps:
        if d.dst == e:
            return d
    return None


def causal_order(events, deps) -> list[Event]:
    """The events, each after all of its ancestors: an event has more
    ancestors than any of them.  Raises ValueError on a cycle."""
    anc = ancestors(events, deps)
    return sorted(events, key=lambda e: (len(anc[e]), e.instance, e.index))


def _reaching(events, deps, top: Event, kinds) -> set[Event]:
    """The events from which ``top`` is reached along program order and
    the deps of ``kinds`` (``top`` included)."""
    by_key = {(e.instance, e.index): e for e in events}
    into: dict[Event, list[Event]] = {}
    for d in deps:
        if d.kind in kinds:
            into.setdefault(d.dst, []).append(d.src)
    out: set[Event] = set()
    stack = [top]
    while stack:
        e = stack.pop()
        if e not in out:
            out.add(e)
            stack.extend(into.get(e, ()))
            if (e.instance, e.index - 1) in by_key:
                stack.append(by_key[(e.instance, e.index - 1)])
    return out


def history(events, deps, top: Event) -> History:
    """What the trace (``events``, ``deps``, ``top``) knows, by the
    definition of each field of ``History``: the ego holds a mutex (is
    inside a once variable) whose last lock/unlock (startO/endO) in its
    program order is a lock (startO); a once variable is completed when an
    endO of it reaches ``top`` along program order, create and once deps;
    an instance is terminated when its exit feeds a join that reaches
    ``top`` along program order and join deps."""
    own = sorted((e for e in events if e.instance == top.instance), key=lambda e: e.index)
    actions = [e.action for e in own if e.action is not None]

    def inside(enter: str, leave: str) -> frozenset:
        last = {a.target: a.kind for a in actions if a.kind in (enter, leave)}
        return frozenset(x for x, kind in last.items() if kind == enter)

    completed = frozenset(e.action.target for e in _reaching(events, deps, top, ("create", "once"))
                          if e.action is not None and e.action.kind == "endO")
    joins = _reaching(events, deps, top, ("join",))
    return History(
        held=inside("lock", "unlock"),
        active=inside("startO", "endO"),
        created=tuple(a.create_id for a in actions if a.kind == "create"),
        completed=completed,
        terminated=frozenset(d.src.instance for d in deps if d.kind == "join" and d.dst in joins),
        seen=frozenset((e.action.kind, e.action.target) for e in events
                       if e.action is not None and e.action.kind in ("init", "initO", "endO")),
    )


def closure(pom, top: Event, anc: dict | None = None) -> Trace:
    past = frozenset((anc or pomset_ancestors(pom))[top])
    deps = frozenset(d for d in pom.deps if d.dst in past)
    return Trace(past, deps, top, history(past, deps, top))


def validate_local_trace(t) -> None:
    """Assert the structural trace invariants; raises ValueError on violation."""
    ancestors(t.events, t.deps)  # raises on cycles
    by_key = {(e.instance, e.index): e for e in t.events}
    below = {d.src for d in t.deps if d.src in t.events and d.dst in t.events}
    below |= {by_key[(e.instance, e.index - 1)] for e in t.events
              if (e.instance, e.index - 1) in by_key}
    maximal = [e for e in t.events if e not in below]
    if maximal != [t.top]:
        raise ValueError(f"trace has {len(maximal)} maximal events, expected exactly top")
    for e in t.events:
        if e.index > 0 and (e.instance, e.index - 1) not in by_key:
            raise ValueError(f"trace not downward closed at {e.describe()}")
    # each observable feeds at most one observer; each observer has one source
    sources: set[tuple] = set()
    observers: set[tuple] = set()
    for d in t.deps:
        if d.kind in ("mutex", "once", "join"):
            if (d.src, d.kind, d.label) in sources or (d.dst, d.kind) in observers:
                raise ValueError(
                    "an observable feeds two observers or an observer has two sources")
            sources.add((d.src, d.kind, d.label))
            observers.add((d.dst, d.kind))


def _prolonged(t, edge: Edge) -> Event:
    """The event the ego of ``t`` reaches by taking ``edge``."""
    return Event(t.ego, t.top.index + 1, edge.target, edge)


def step_local(edge: Edge, t) -> Trace | None:
    """``t`` prolonged over the non-observing ``edge`` (at a create, the
    creator's own step), or None when ``t`` is not at the edge's source or
    fails its guard, read off the trace by definition: ``pos ran o`` needs
    an endO of ``o`` in the trace and ``neg ran o`` none, ``init`` and
    ``initO`` need no event of their kind and target, ``unlock a`` needs
    ``a`` held and ``endO o`` needs ``o`` active."""
    act = edge.action
    if act.is_observing:
        raise ValueError(f"{act.kind} is an observing action")
    if t.ego_node() != edge.source:
        return None
    seen = {e.action.obs_key() for e in t.events if e.action is not None}
    h, x = history(t.events, t.deps, t.top), act.target
    allowed = {
        "pos_ran": ("endO", x) in seen,
        "neg_ran": ("endO", x) not in seen,
        "init": ("init", x) not in seen,
        "initO": ("initO", x) not in seen,
        "unlock": x in h.held,
        "endO": x in h.active,
    }.get(act.kind, True)
    if not allowed:
        return None
    new = _prolonged(t, edge)
    events = t.events | {new}
    return Trace(events, t.deps, new, history(events, t.deps, new))


def step_observing(p: Program, edge: Edge, t0, t1) -> Trace | None:
    """The merge of ``t1`` into ``t0`` at an observing edge on frozensets:
    the union of the event and dep sets prolonged by the new event, with
    the history its events and deps define, or None when ``t1``'s top is
    not what the edge observes (at a join, the exit of the ego's last
    child through the joined edge) or the union holds two events at one
    (instance, index), an event of the ego past its top, an event feeding
    two deps of one kind and label or one with two incoming deps, a create
    dep whose source is followed by an event other than that create, or a
    cycle."""
    act = edge.action
    if t0.ego_node() != edge.source:
        return None
    top1 = t1.top
    if top1.action is None or top1.action.obs_key() not in act.observed_keys():
        return None
    if act.kind == "join":
        count = sum(1 for e in t0.events if e.instance == t0.ego and e.action is not None
                    and e.action.kind == "create" and e.action.create_id == act.target)
        if top1.instance != t0.ego + ((act.target, count - 1),):
            return None
    events = t0.events | t1.events
    slots = {(e.instance, e.index) for e in events}
    if len(slots) < len(events):
        return None
    if any(e.instance == t0.ego and e.index > t0.top.index for e in events):
        return None
    kind = {"lock": "mutex", "startO": "once", "join": "join"}[act.kind]
    new = _prolonged(t0, edge)
    deps = t0.deps | t1.deps | {
        DepEdge(kind, act.target if act.kind != "join" else None, top1, new)}
    if (len({(d.src, d.kind, d.label) for d in deps}) < len(deps)
            or len({(d.dst, d.kind) for d in deps}) < len(deps)):
        return None
    by_slot = {(e.instance, e.index): e for e in events | {new}}
    for d in deps:
        if d.kind == "create":
            nxt = by_slot.get((d.src.instance, d.src.index + 1))
            if nxt is not None and nxt.edge.action.create_id != d.dst.instance[-1][0]:
                return None
    try:
        ancestors(events | {new}, deps)
    except ValueError:
        return None
    return Trace(events | {new}, deps, new, history(events | {new}, deps, new))


@dataclass
class _State:
    nodes: dict
    last: dict
    mutex: dict
    once: dict
    created: dict
    last_child: dict
    exited: dict
    joined: set
    events: frozenset
    deps: frozenset
    past: dict
    n_actions: int

    def copy(self) -> "_State":
        return _State(
            dict(self.nodes), dict(self.last), dict(self.mutex), dict(self.once),
            {k: dict(v) for k, v in self.created.items()}, dict(self.last_child),
            dict(self.exited), set(self.joined), self.events, self.deps,
            dict(self.past), self.n_actions,
        )

    def key(self) -> tuple:
        return (self.events, self.deps)


def _initial_state(p: Program) -> _State:
    main = p.main()
    start = Event(MAIN, 0, main.start_node, None)
    return _State(
        nodes={MAIN: main.start_node},
        last={MAIN: start},
        mutex={},
        once={},
        created={MAIN: {}},
        last_child={},
        exited={},
        joined=set(),
        events=frozenset({start}),
        deps=frozenset(),
        past={start: frozenset({start})},
        n_actions=0,
    )


def _candidate_edges(p: Program, s: _State, instance: InstanceId) -> list[Edge]:
    node = s.nodes.get(instance)
    if node is None:
        return []
    return p.edges_from(node)


def _guard_ok(p: Program, s: _State, instance: InstanceId, edge: Edge) -> bool:
    a = edge.action
    if a.kind in ("skip", "read", "write"):
        return True
    if a.kind == "pos_ran" or a.kind == "neg_ran":
        seen = any(
            ev.action is not None and ev.action.kind == "endO" and ev.action.target == a.target
            for ev in s.past[s.last[instance]]
        )
        return seen if a.kind == "pos_ran" else not seen
    if a.kind == "init":
        return s.mutex.get(a.target, ("uninit",))[0] == "uninit"
    if a.kind == "lock":
        return s.mutex.get(a.target, ("uninit",))[0] == "free"
    if a.kind == "unlock":
        st = s.mutex.get(a.target, ("uninit",))
        return st[0] == "held" and st[1] == instance
    if a.kind == "initO":
        return s.once.get(a.target, ("uninit",))[0] == "uninit"
    if a.kind == "startO":
        return s.once.get(a.target, ("uninit",))[0] == "ready"
    if a.kind == "endO":
        st = s.once.get(a.target, ("uninit",))
        return st[0] == "active" and st[1] == instance
    if a.kind == "join":
        child = s.last_child.get((instance, a.target))
        return child is not None and child in s.exited and child not in s.joined
    if a.kind in ("create", "exit"):
        return True
    raise ValueError(f"unhandled action kind {a.kind}")


def _apply(p: Program, s: _State, instance: InstanceId, edge: Edge) -> tuple[_State, list[Event]]:
    """Execute one enabled edge; returns the successor state and new events."""
    ns = s.copy()
    a = edge.action
    prev = ns.last[instance]
    ev = Event(instance, prev.index + 1, edge.target, edge)
    past = ns.past[prev] | {ev}
    dep_src: Event | None = None
    if a.kind == "lock":
        dep_src = ns.mutex[a.target][1]
        ns.mutex[a.target] = ("held", instance)
    elif a.kind == "startO":
        dep_src = ns.once[a.target][1]
        ns.once[a.target] = ("active", instance)
    elif a.kind == "join":
        child = ns.last_child[(instance, a.target)]
        dep_src = ns.exited[child]
        ns.joined.add(child)
    elif a.kind == "init":
        ns.mutex[a.target] = ("free", ev)
    elif a.kind == "unlock":
        ns.mutex[a.target] = ("free", ev)
    elif a.kind == "initO":
        ns.once[a.target] = ("ready", ev)
    elif a.kind == "endO":
        ns.once[a.target] = ("ready", ev)

    new_events = [ev]
    if dep_src is not None:
        kind = {"lock": "mutex", "startO": "once", "join": "join"}[a.kind]
        label = a.target if a.kind in ("lock", "startO") else None
        ns.deps = ns.deps | {DepEdge(kind, label, dep_src, ev)}
        past = past | ns.past[dep_src]
    ns.events = ns.events | {ev}
    ns.past[ev] = past
    ns.last[instance] = ev
    ns.nodes[instance] = edge.target
    ns.n_actions += 1

    if a.kind == "exit":
        ns.nodes[instance] = None
        ns.exited[instance] = ev
    elif a.kind == "create":
        occurrence = ns.created[instance].get(a.create_id, 0)
        ns.created[instance][a.create_id] = occurrence + 1
        child: InstanceId = instance + ((a.create_id, occurrence),)
        proto = p.prototypes[a.target]
        start = Event(child, 0, proto.start_node, None)
        # the child depends on the creator's last configuration before create
        ns.deps = ns.deps | {DepEdge("create", None, prev, start)}
        ns.events = ns.events | {start}
        ns.past[start] = ns.past[prev] | {start}
        ns.nodes[child] = proto.start_node
        ns.last[child] = start
        ns.created[child] = {}
        ns.last_child[(instance, a.create_id)] = child
        new_events.append(start)
    return ns, new_events


def enumerate_traces(p: Program, depth: int = 40, width: int = 4) -> Enumeration:
    """The maximal execution pomsets, a flag telling whether any branch was
    cut off by a bound, and all local traces reachable within the event and
    instance bounds, collected per state."""
    if depth < 1 or width < 1:
        raise ValueError("bounds must be at least 1")
    init = _initial_state(p)
    traces: set[Trace] = set()
    pomsets: set[tuple] = set()
    truncated = False
    visited: set[tuple] = set()

    init_trace = Trace(init.events, init.deps, init.last[MAIN],
                       history(init.events, init.deps, init.last[MAIN]))
    traces.add(init_trace)

    stack = [init]
    visited.add(init.key())
    while stack:
        s = stack.pop()
        enabled: list[tuple[InstanceId, Edge]] = []
        blocked_by_bound = False
        for instance in sorted(s.nodes):
            for edge in _candidate_edges(p, s, instance):
                if not _guard_ok(p, s, instance, edge):
                    continue
                if s.n_actions + 1 > depth:
                    blocked_by_bound = True
                    continue
                if edge.action.kind == "create" and len(s.nodes) + 1 > width:
                    blocked_by_bound = True
                    continue
                enabled.append((instance, edge))
        if blocked_by_bound:
            truncated = True
        if not enabled:
            pomsets.add((s.events, s.deps))
            continue
        for instance, edge in enabled:
            ns, new_events = _apply(p, s, instance, edge)
            key = ns.key()
            if key in visited:
                continue
            visited.add(key)
            for ev in new_events:
                deps_in = frozenset(d for d in ns.deps if d.dst in ns.past[ev])
                traces.add(Trace(ns.past[ev], deps_in, ev, history(ns.past[ev], deps_in, ev)))
            stack.append(ns)

    return Enumeration(frozenset(Pomset(ev, dp) for ev, dp in pomsets), truncated,
                       frozenset(traces))


def _access_events(pom, glob: str | None = None) -> list[Event]:
    out = []
    for e in sorted(pom.events, key=lambda e: (e.instance, e.index)):
        a = e.action
        if a is not None and a.kind in ("read", "write"):
            if glob is None or a.target == glob:
                out.append(e)
    return out


def _site(e: Event) -> tuple[str, str]:
    return (e.edge.source, WRITE if e.action.kind == "write" else READ)


def find_racy_pairs(found_by: Enumeration) -> frozenset[RacePair]:
    """Access pairs (>=1 write) left unordered once the order contributed by
    the accessed global's atomicity mutex is discarded."""
    found: set[RacePair] = set()
    for pom in found_by.pomsets:
        by_glob: dict[str, list[Event]] = {}
        for e in _access_events(pom):
            by_glob.setdefault(e.action.target, []).append(e)
        for glob, accesses in sorted(by_glob.items()):
            mg = atomicity_mutex(glob)
            stripped = frozenset(
                d for d in pom.deps if not (d.kind == "mutex" and d.label == mg)
            )
            partial = ancestors(pom.events, stripped)
            for i, ea in enumerate(accesses):
                for eb in accesses[i + 1:]:
                    if ea.action.kind != "write" and eb.action.kind != "write":
                        continue
                    if ea in partial[eb] or eb in partial[ea]:
                        continue
                    found.add(RacePair(glob, *sorted((_site(ea), _site(eb)))))
    return frozenset(found)
