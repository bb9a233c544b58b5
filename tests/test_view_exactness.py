"""The observed-view contract: every shipped and registered view is exact
on the corpus, and the view-exactness law catches a view that drops a
field its observing step reads."""

from __future__ import annotations

import pytest

from racedigest.digest import LawTables, check_view_exactness
from racedigest.digests import (
    MUTANTS,
    JoinDigest,
    OnceDigest,
    OverlapEmptyLockset,
    ThreadFlagDigest,
)


class BlindThreadFlag(ThreadFlagDigest):
    """Ignores whether a lock's partner is single-threaded main."""

    name = "threadflag@blind-view"

    def observed_view(self, act, elem1):
        return None


class PathOnlyJoin(JoinDigest):
    """Ignores the joined set a joined thread carries over."""

    name = "join@path-view"

    def observed_view(self, act, elem1):
        return elem1.tid.path if act.kind == "join" else None


class BlindOnce(OnceDigest):
    """Ignores the completions a startO partner carries."""

    name = "once@blind-view"

    def observed_view(self, act, elem1):
        return None


class BlindOverlapLockset(OverlapEmptyLockset):
    """The registered lockset mutant reads its partner's lockset; a view
    without it is inexact."""

    name = "lockset@overlap-empty-blind-view"

    def observed_view(self, act, elem1):
        return None


def _caught(digest, cases) -> list[str]:
    return [
        case.name for case in cases
        if not check_view_exactness(LawTables(digest, case.traces())).passed
    ]


@pytest.mark.parametrize(
    "factory", [BlindThreadFlag, PathOnlyJoin, BlindOnce, BlindOverlapLockset],
    ids=lambda f: f.name,
)
def test_law_catches_a_dropped_view_field(corpus_cases, factory):
    assert _caught(factory(), corpus_cases)


def test_registered_mutants_have_exact_views(corpus_cases):
    # the mutant suite solves with the grouped solver, so a mutant's view
    # must be exact for the suite to judge the mutant's own transfer
    for _, factory in sorted(MUTANTS.items()):
        mutant = factory()
        assert _caught(mutant, corpus_cases) == [], mutant.name


def test_violation_names_the_action_and_both_partners(corpus_cases):
    case = next(c for c in corpus_cases if c.name == "join_chain")
    report = check_view_exactness(LawTables(PathOnlyJoin(), case.traces()))
    assert report.checks > 0
    (law, detail), *_ = [(v.law, v.detail) for v in report.violations]
    assert law == "view-exactness"
    assert detail.startswith("join ") and "share a view" in detail
