"""The shipped digest instances.

* lockset    -- the set of mutexes held by the ego thread
* threadflag -- single-threaded main / multi-threaded main / other thread
* tid        -- creation-history thread ids with uniqueness and a record of
                create edges already taken (bounded by a path cap)
* join       -- creation paths of threads that must have terminated,
                propagated through join chains (rides on thread ids)
* once       -- active and completed once-control variables

Each digest implements the abstraction map used by the law harness, from
a local trace's ego instance and history, and a bespoke
may-happen-in-parallel predicate.  A few
deliberately broken variants are registered for mutation testing.
"""

from __future__ import annotations

from collections import namedtuple

from .digest import ConfigError, Digest
from .model import Action, Edge, edge_path, is_atomicity_mutex

ST_MAIN = "ST_main"
MT_MAIN = "MT_main"
MT = "MT"

DEFAULT_TID_CAP = 8

# Per-edge create counts saturate here: the predicates only ever distinguish
# "never", "exactly once", and "more than once", and saturation keeps the
# realized element universe finite under create loops.
CREATED_SATURATION = 2


def _saturate_counts(edge_ids) -> tuple[str, ...]:
    counts: dict[str, int] = {}
    for ce in edge_ids:
        counts[ce] = min(counts.get(ce, 0) + 1, CREATED_SATURATION)
    return tuple(sorted(ce for ce, n in counts.items() for _ in range(n)))


class LocksetDigest(Digest):
    name = "lockset"

    def init_digests(self) -> frozenset:
        return frozenset({frozenset()})

    def new_digest(self, elem, create_edge: Edge):
        return frozenset()

    def step_local(self, act: Action, elem):
        if act.kind == "unlock":
            if act.target not in elem:
                return None
            return elem - {act.target}
        return elem

    def step_observing(self, act: Action, elem0, elem1):
        if act.kind == "lock":
            if act.target in elem0:
                return None
            return elem0 | {act.target}
        return self.step_local(act, elem0)

    def observed_view(self, act: Action, elem1):
        return None

    def mhp(self, glob: str, a, b) -> bool:
        return not (a & b)

    def abstract(self, ego, history):
        return history.held

    def format_elem(self, elem) -> str:
        return "{" + ",".join(sorted(elem)) + "}"


class ThreadFlagDigest(Digest):
    name = "threadflag"

    def init_digests(self) -> frozenset:
        return frozenset({ST_MAIN})

    def new_digest(self, elem, create_edge: Edge):
        return MT

    def step_local(self, act: Action, elem):
        if act.kind == "create":
            return MT if elem == MT else MT_MAIN
        return elem

    def step_observing(self, act: Action, elem0, elem1):
        if act.kind == "lock":
            if elem0 == ST_MAIN and elem1 != ST_MAIN:
                return None
            return elem0
        return self.step_local(act, elem0)

    def observed_view(self, act: Action, elem1):
        return elem1 == ST_MAIN if act.kind == "lock" else None

    def mhp(self, glob: str, a, b) -> bool:
        return not (a == ST_MAIN or b == ST_MAIN or (a == MT_MAIN and b == MT_MAIN))

    def abstract(self, ego, history):
        if ego != ():
            return MT
        return MT_MAIN if history.created else ST_MAIN

    def format_elem(self, elem) -> str:
        return elem


class TidElem(namedtuple("TidElem", "path created unique")):
    """path (a tuple of create edges) is None for the overflow element
    absorbing too-deep creation histories; created is a sorted multiset of
    create edges the ego took (a tuple); unique a bool."""

    __slots__ = ()


TID_OVERFLOW = TidElem(None, (), False)


def _alpha_unique(instance) -> bool:
    seen = set()
    for ce, serial in instance:
        if serial != 0 or ce in seen:
            return False
        seen.add(ce)
    return True


class ThreadIdDigest(Digest):
    name = "tid"

    def __init__(self, cap: int = DEFAULT_TID_CAP):
        self.cap = cap

    def init_digests(self) -> frozenset:
        return frozenset({TidElem((), (), True)})

    def child_path(self, elem: TidElem, ce: str) -> tuple[str, ...] | None:
        """The path of the child ``elem`` creates through edge ``ce``, or
        None when ``elem`` is the overflow element or its path is at the cap."""
        if elem.path is None or len(elem.path) >= self.cap:
            return None
        return elem.path + (ce,)

    def new_digest(self, elem, create_edge: Edge):
        ce = create_edge.action.create_id
        path = self.child_path(elem, ce)
        if path is None:
            return TID_OVERFLOW
        unique = elem.unique and ce not in elem.path and ce not in elem.created
        return TidElem(path, (), unique)

    def step_local(self, act: Action, elem):
        if act.kind == "create" and elem.path is not None:
            created = _saturate_counts(elem.created + (act.create_id,))
            return TidElem(elem.path, created, elem.unique)
        return elem

    def observed_view(self, act: Action, elem1):
        return None

    def may_run(self, a: TidElem, b: TidElem) -> bool:
        """False only when the thread of ``b`` provably has not started:
        both ids unique, b strictly below a, and the ego has not yet taken
        the create edge toward b."""
        if not (a.unique and b.unique) or a.path is None or b.path is None:
            return True
        if len(b.path) <= len(a.path) or b.path[: len(a.path)] != a.path:
            return True
        return b.path[len(a.path)] in a.created

    def mhp(self, glob: str, a, b) -> bool:
        same = a.path is not None and a.path == b.path and a.unique and b.unique
        return not same and self.may_run(a, b) and self.may_run(b, a)

    def abstract(self, ego, history):
        path = edge_path(ego)
        if len(path) > self.cap:
            return TID_OVERFLOW
        return TidElem(path, _saturate_counts(history.created), _alpha_unique(ego))

    def format_elem(self, elem) -> str:
        if elem.path is None:
            return "tid:overflow"
        u = "!" if elem.unique else "?"
        return f"tid{u}[{','.join(elem.path)}]c[{','.join(elem.created)}]"


class JoinElem(namedtuple("JoinElem", "tid joined")):
    """The ego's ``TidElem`` and the creation paths (tuples) of threads
    known terminated, a frozenset."""

    __slots__ = ()


class JoinDigest(Digest):
    """Must-terminated threads by creation path.

    A path enters the set when the ego joins the unique child it created
    through an edge taken exactly once; the joined thread's own set is
    carried over because those threads terminated even earlier.
    """

    name = "join"

    def __init__(self, cap: int = DEFAULT_TID_CAP):
        self.cap = cap
        self._tid = ThreadIdDigest(cap)

    def init_digests(self) -> frozenset:
        (tid0,) = self._tid.init_digests()
        return frozenset({JoinElem(tid0, frozenset())})

    def new_digest(self, elem, create_edge: Edge):
        return JoinElem(self._tid.new_digest(elem.tid, create_edge), frozenset())

    def step_local(self, act: Action, elem):
        tid = self._tid.step_local(act, elem.tid)
        if tid is None:
            return None
        return JoinElem(tid, elem.joined)

    def step_observing(self, act: Action, elem0, elem1):
        if act.kind != "join":
            return self.step_local(act, elem0)
        ce = act.target
        tid0, tid1 = elem0.tid, elem1.tid
        child_path = self._tid.child_path(tid0, ce)
        if child_path is not None and tid1.path is not None and tid1.path != child_path:
            return None  # exit of a thread this join cannot observe
        joined = elem0.joined | elem1.joined
        if child_path is not None and tid0.unique and tid0.created.count(ce) == 1:
            joined = joined | {child_path}
        return JoinElem(tid0, joined)

    def observed_view(self, act: Action, elem1):
        return (elem1.tid.path, elem1.joined) if act.kind == "join" else None

    def mhp(self, glob: str, a, b) -> bool:
        return not (self._terminated_before(a, b) or self._terminated_before(b, a))

    @staticmethod
    def _terminated_before(ego: JoinElem, other: JoinElem) -> bool:
        return (
            other.tid.path is not None
            and other.tid.unique
            and other.tid.path in ego.joined
        )

    def abstract(self, ego, history):
        # a joined thread counts when its path fits the cap, its creator is
        # unique and it is the first child created through its edge
        joined = frozenset(
            edge_path(child) for child in history.terminated
            if len(child) <= self.cap and child[-1][1] == 0 and _alpha_unique(child[:-1])
        )
        return JoinElem(self._tid.abstract(ego, history), joined)

    def format_elem(self, elem) -> str:
        joined = ";".join(",".join(p) for p in sorted(elem.joined))
        return f"{self._tid.format_elem(elem.tid)}j[{joined}]"


class OnceDigest(Digest):
    name = "once"

    def init_digests(self) -> frozenset:
        return frozenset({(frozenset(), frozenset())})

    def new_digest(self, elem, create_edge: Edge):
        return (frozenset(), elem[1])

    def step_local(self, act: Action, elem):
        active, completed = elem
        if act.kind == "endO":
            return (active - {act.target}, completed | {act.target})
        if act.kind == "pos_ran":
            return elem if act.target in completed else None
        if act.kind == "neg_ran":
            return None if act.target in completed else elem
        return elem

    def step_observing(self, act: Action, elem0, elem1):
        if act.kind == "startO":
            active, completed = elem0
            if act.target in active:
                return None
            return (active | {act.target}, completed | elem1[1])
        return self.step_local(act, elem0)

    def observed_view(self, act: Action, elem1):
        return elem1[1] if act.kind == "startO" else None

    def mhp(self, glob: str, a, b) -> bool:
        active_a, completed_a = a
        active_b, completed_b = b
        return not (active_a & (active_b | completed_b) or active_b & (active_a | completed_a))

    def abstract(self, ego, history):
        return (history.active, history.completed)

    def format_elem(self, elem) -> str:
        return "A{" + ",".join(sorted(elem[0])) + "}C{" + ",".join(sorted(elem[1])) + "}"


# ---------------------------------------------------------------------------
# Mutants for the mutation-testing hook
# ---------------------------------------------------------------------------

class OverlapEmptyLockset(LocksetDigest):
    """Declares atomicity locks impossible under overlapping locksets, which
    breaks the simulation law."""

    name = "lockset@overlap-empty"

    def step_observing(self, act: Action, elem0, elem1):
        if act.kind == "lock" and is_atomicity_mutex(act.target) and elem0 & elem1:
            return None
        return super().step_observing(act, elem0, elem1)

    def observed_view(self, act: Action, elem1):
        return elem1 if act.kind == "lock" and is_atomicity_mutex(act.target) else None


class SpawnedPairThreadFlag(ThreadFlagDigest):
    """Wrongly says two spawned threads never run in parallel."""

    name = "threadflag@spawned-pair"

    def mhp(self, glob: str, a, b) -> bool:
        return not (a == MT and b == MT) and super().mhp(glob, a, b)


class EagerMayRunTid(ThreadIdDigest):
    """may_run ignores whether the creating edge was already taken."""

    name = "tid@eager-mayrun"

    def may_run(self, a: TidElem, b: TidElem) -> bool:
        if a.path is None or b.path is None:
            return True
        return not (len(b.path) > len(a.path) and b.path[: len(a.path)] == a.path)


class CreateCountsAsJoin(JoinDigest):
    """Marks a thread as terminated already at its creation."""

    name = "join@premature"

    def step_local(self, act: Action, elem):
        out = super().step_local(act, elem)
        if out is not None and act.kind == "create":
            path = self._tid.child_path(out.tid, act.create_id)
            if path is not None:
                return JoinElem(out.tid, out.joined | {path})
        return out


class CompletedPairOnce(OnceDigest):
    """Wrongly orders any two accesses that both saw a completion."""

    name = "once@completed-pair"

    def mhp(self, glob: str, a, b) -> bool:
        return not (a[1] & b[1]) and super().mhp(glob, a, b)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

CANONICAL_ORDER = ("lockset", "threadflag", "tid", "join", "once")


def build_digests(names, tid_cap: int = DEFAULT_TID_CAP) -> tuple[Digest, ...]:
    """Instantiate digests by registry name, normalized to canonical order."""
    requested = set(names)
    unknown = requested - set(CANONICAL_ORDER)
    if unknown:
        raise ConfigError(f"unknown digests: {sorted(unknown)}")
    if "join" in requested and "tid" not in requested:
        raise ConfigError("the join digest requires the tid digest")
    factories = {
        "lockset": LocksetDigest,
        "threadflag": ThreadFlagDigest,
        "tid": lambda: ThreadIdDigest(tid_cap),
        "join": lambda: JoinDigest(tid_cap),
        "once": OnceDigest,
    }
    return tuple(factories[n]() for n in CANONICAL_ORDER if n in requested)


MUTANTS = {
    "lockset": OverlapEmptyLockset,
    "threadflag": SpawnedPairThreadFlag,
    "tid": EagerMayRunTid,
    "join": CreateCountsAsJoin,
    "once": CompletedPairOnce,
}
