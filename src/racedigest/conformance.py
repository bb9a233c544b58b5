"""Corpus definition and the suites tying analyzer, digests, and oracle together.

A corpus case is a program's source and its ``expected.json`` (frozen
oracle ground truth plus provenance and the predicate subsets expected to
prove race freedom); on disk, a directory with ``program.rlp`` and
``expected.json``.  The suites run under the default digests and thread-id
cap, those the truth was frozen for:

* expectations -- oracle results match the frozen truth, enumeration is
  exhaustive, and the promised race-free subsets hold;
* soundness    -- for every predicate subset, flagged pairs cover the
  oracle's racy pairs, and flag counts shrink monotonically with subsets;
* laws         -- every shipped digest passes admissibility, access
  stability, predicate commutativity and view exactness on every case
  (their product's laws follow from these);
* equivalence  -- racy pairs coincide with bidirectionally compatible
  write pairs;
* subsumption  -- everything the thread flag excludes, thread ids exclude;
* mutants      -- every registered broken digest is caught by the law or
  the soundness suite.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import NoReturn

from .detector import RaceReport, detect, predicate_subsets
from .digest import (
    MUTANTS,
    LawTables,
    check_access_stability,
    check_admissibility,
    check_mhp_commutativity,
    check_view_exactness,
)
from .digests import CANONICAL_ORDER, Digest, ProductDigest, build_digests
from .dsl import DslSyntaxError, parse_program
from .model import READ, WRITE, ValidationError, access_sites, instrument_atomicity
from .oracle import TraceSet, bidirectionally_compatible, enumerate_traces, find_racy_pairs
from .solver import Solution, build_system, solve


class CorpusCase:
    """The case ``name``: the program parsed and instrumented from
    ``source`` and its expected.json ``expected``, both checked here, so a
    case made in memory is checked as one loaded from a directory.  Its
    trace set, racy pairs, solution and race report are each made once, on
    first use."""

    def __init__(self, name: str, source: str, expected) -> None:
        _check_expected(name, expected)
        try:
            self.program = instrument_atomicity(parse_program(source))
        except (DslSyntaxError, ValidationError) as exc:
            raise ValueError(f"{name}: program.rlp: {exc}") from None
        self.name, self.expected = name, expected
        self._traces: TraceSet | None = None
        self._racy: frozenset | None = None
        self._solution: Solution | None = None
        self._report: RaceReport | None = None

    def traces(self) -> TraceSet:
        if self._traces is None:
            bounds = self.expected["bounds"]
            self._traces = enumerate_traces(self.program, depth=bounds["depth"],
                                            width=bounds["width"])
        return self._traces

    def solution(self) -> Solution:
        """The all-digest solution, solved once; its product is ``system.digest``."""
        if self._solution is None:
            product = ProductDigest(build_digests(CANONICAL_ORDER))
            self._solution = solve(build_system(self.program, product))
        return self._solution

    def report(self) -> RaceReport:
        """The bespoke race report of the all-digest solution, made once."""
        if self._report is None:
            sol = self.solution()
            self._report = detect(sol, sol.system.digest)
        return self._report

    def oracle_site_pairs(self) -> frozenset:
        if self._racy is None:
            self._racy = frozenset(
                (r.glob, r.site_a, r.site_b) for r in find_racy_pairs(self.traces())
            )
        return self._racy

    def expected_site_pairs(self) -> set:
        return {
            (e["global"], (e["a"]["site"], e["a"]["type"]), (e["b"]["site"], e["b"]["type"]))
            for e in self.expected["racy"]
        }


_REQUIRED_KEYS = (("bounds", "depth"), ("bounds", "width"), ("racy",), ("race_free_subsets",))


def _is_access(x) -> bool:
    return isinstance(x, dict) and isinstance(x.get("site"), str) and x.get("type") in (READ, WRITE)


def _check_expected(name: str, expected) -> None:
    def bad(what: str) -> NoReturn:
        raise ValueError(f"{name}: expected.json {what}")

    for path in _REQUIRED_KEYS:
        node = expected
        for n, key in enumerate(path, 1):
            if not isinstance(node, dict) or key not in node:
                bad(f"lacks {'.'.join(path[:n])}")
            node = node[key]
    for key in ("depth", "width"):
        bound = expected["bounds"][key]
        if type(bound) is not int or bound < 1:
            bad(f"bounds.{key} is not a positive integer: {bound!r}")
    racy = expected["racy"]
    if not isinstance(racy, list):
        bad(f"racy is not a list: {racy!r}")
    for i, race in enumerate(racy):
        if not (isinstance(race, dict) and isinstance(race.get("global"), str)
                and _is_access(race.get("a")) and _is_access(race.get("b"))):
            bad(f"racy[{i}] needs a global and accesses a and b, each a site and a type "
                f"{WRITE} or {READ}: {race!r}")
    subsets = expected["race_free_subsets"]
    if not isinstance(subsets, list) or not all(isinstance(s, list) for s in subsets):
        bad(f"race_free_subsets is not a list of lists: {subsets!r}")
    for subset in subsets:
        unknown = [n for n in subset if n not in CANONICAL_ORDER]
        if unknown:
            bad(f"race_free_subsets names unknown digests {unknown}")


def load_corpus(directory: Path) -> list[CorpusCase]:
    cases = []
    for sub in sorted(Path(directory).iterdir()):
        if not (sub / "program.rlp").exists():
            continue
        try:
            expected = json.loads((sub / "expected.json").read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{sub.name}: expected.json is not valid JSON: {exc}") from None
        source = (sub / "program.rlp").read_text(encoding="utf-8")
        cases.append(CorpusCase(sub.name, source, expected))
    if not cases:
        raise FileNotFoundError(f"no corpus cases under {directory}")
    return cases


class SuiteSection:
    """One suite's checks and failure messages."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.checks = 0
        self.failures: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def to_text(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lines = [f"[{status}] {self.name}: {self.checks} checks"]
        lines.extend(f"    {m}" for m in self.failures)
        return "\n".join(lines)


class SuiteResult:
    def __init__(self, sections: list[SuiteSection]) -> None:
        self.sections = sections

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.sections)

    def to_text(self) -> str:
        body = "\n".join(s.to_text() for s in self.sections)
        verdict = "all suites pass" if self.passed else "SUITE FAILURES"
        return f"{body}\n{verdict}\n"


def _exhaustive(section: SuiteSection, cases):
    """Each case that enumerates exhaustively, with its traces; every other
    case fails ``section``."""
    for case in cases:
        ts = case.traces()
        if ts.truncated:
            section.fail(f"{case.name}: enumeration truncated (bounds too small)")
        else:
            yield case, ts


def run_expectation_suite(cases) -> SuiteSection:
    section = SuiteSection("expectations")
    cases = list(cases)
    section.checks += len(cases)  # one per case: exhaustive, with the frozen races
    for case, _ in _exhaustive(section, cases):
        got = case.oracle_site_pairs()
        want = case.expected_site_pairs()
        if got != want:
            section.fail(f"{case.name}: oracle races {sorted(got)} != expected {sorted(want)}")
        report = case.report()
        for subset in case.expected["race_free_subsets"]:
            section.checks += 1
            flagged = report.witnesses(report.mask_of(subset))
            if flagged:
                section.fail(
                    f"{case.name}: subset {subset} should prove race freedom but flags "
                    f"{sorted(p[1:] for p in flagged)}"
                )
    return section


def run_soundness_suite(cases) -> SuiteSection:
    """Zero false negatives for every subset of the predicates of each
    case's report, and ablation monotonicity along the subset order."""
    section = SuiteSection("soundness")
    # per digests tuple, the subset masks and the (smaller, larger) subset
    # pairs, in combination order
    orders: dict = {}
    for case, _ in _exhaustive(section, cases):
        oracle_pairs = case.oracle_site_pairs()
        report = case.report()
        if report.digests not in orders:
            masks = {s: report.mask_of(s) for s in predicate_subsets(report.digests)}
            orders[report.digests] = masks, [
                (small, big) for (small, ms), (big, mb) in
                itertools.combinations(masks.items(), 2) if ms & mb == ms]
        masks, inclusions = orders[report.digests]
        flags = {subset: report.witnesses(mask).keys() for subset, mask in masks.items()}
        for subset, flagged in flags.items():
            section.checks += 1
            missed = oracle_pairs - flagged
            if missed:
                section.fail(
                    f"{case.name}: subset {list(subset)} misses real races {sorted(missed)}"
                )
        for small, big in inclusions:
            section.checks += 1
            if not flags[big] <= flags[small]:
                section.fail(f"{case.name}: enabling {list(big)} flags more than {list(small)}")
    return section


def run_law_suite(cases) -> SuiteSection:
    """Every shipped digest on every case, each on its own ``LawTables``,
    which abstracts each distinct (ego, history) of the traces once:
    admissibility replays the traces' steps on it, and the three
    oracle-free laws are checked on its realized values.  Their product is
    not checked: its laws follow from its components' (``ProductDigest``)."""
    section = SuiteSection("laws")
    digests = build_digests(CANONICAL_ORDER)
    for case, ts in _exhaustive(section, cases):
        for d in digests:
            laws = LawTables(d, ts)
            for report in (
                check_admissibility(laws),
                check_access_stability(d, case.program, laws.realized),
                check_mhp_commutativity(d, case.program, laws.realized),
                check_view_exactness(d, case.program, laws.realized),
            ):
                section.checks += report.checks
                for v in report.violations:
                    section.fail(f"{case.name}: {d.name}: {v.law}: {v.detail}")
    return section


def run_equivalence_suite(cases) -> SuiteSection:
    """Racy pairs coincide with bidirectionally compatible write pairs."""
    section = SuiteSection("equivalence")
    for case, ts in _exhaustive(section, cases):
        sites = access_sites(case.program)
        racy = case.oracle_site_pairs()
        compatible = set()
        for i, (site_a, glob_a, type_a) in enumerate(sites):
            for site_b, glob_b, type_b in sites[i:]:
                if glob_a != glob_b or WRITE not in (type_a, type_b):
                    continue
                section.checks += 1
                if bidirectionally_compatible(ts, site_a, site_b):
                    pair = tuple(sorted(((site_a, type_a), (site_b, type_b))))
                    compatible.add((glob_a, pair[0], pair[1]))
        if compatible != racy:
            section.fail(
                f"{case.name}: bidirectionally compatible {sorted(compatible)} != racy {sorted(racy)}"
            )
    return section


def run_subsumption_suite(cases) -> SuiteSection:
    """Every record pair the thread flag excludes, thread ids exclude too."""
    section = SuiteSection("tid-subsumes-threadflag")
    for case in cases:
        sol = case.solution()
        product = sol.system.digest
        by_name = {c.name: (i, c) for i, c in enumerate(product.components)}
        tf_i, tf = by_name["threadflag"]
        tid_i, tid = by_name["tid"]
        for glob in sorted(sol.races):
            records = sorted(
                sol.records(glob), key=lambda r: (r.site, r.type, product.format_elem(r.digest))
            )
            for i, r0 in enumerate(records):
                for r1 in records[i:]:
                    section.checks += 1
                    tf_v = tf.mhp(glob, r0.digest[tf_i], r1.digest[tf_i])
                    tid_v = tid.mhp(glob, r0.digest[tid_i], r1.digest[tid_i])
                    if not tf_v and tid_v:
                        section.fail(
                            f"{case.name}: {glob} {r0.site}/{r1.site}: threadflag excludes "
                            "but tid does not"
                        )
    return section


def _catches(case: CorpusCase, ts: TraceSet, mutant: Digest, product: ProductDigest) -> bool:
    """Whether ``case`` catches ``mutant``: by a law, or else by a race the
    product holding it misses."""
    laws = LawTables(mutant, ts)
    if (not check_admissibility(laws).passed
            or not check_access_stability(mutant, case.program, laws.realized).passed):
        return True
    flagged = detect(solve(build_system(case.program, product)), product).flagged
    return not case.oracle_site_pairs() <= flagged.keys()


def run_mutant_suite(cases) -> SuiteSection:
    """Each registered mutant must be caught by the laws or by soundness on
    some case; the cases are tried in order up to the first that catches it."""
    section = SuiteSection("mutants")
    exhaustive = list(_exhaustive(section, cases))
    for target, factory in sorted(MUTANTS.items()):
        mutant = factory()
        components = list(build_digests(CANONICAL_ORDER))
        components[CANONICAL_ORDER.index(target)] = mutant
        product = ProductDigest(tuple(components))
        section.checks += 1
        if not any(_catches(case, ts, mutant, product) for case, ts in exhaustive):
            section.fail(f"mutant {mutant.name} (for {target}) survives all suites")
    return section


def run_all_suites(cases) -> SuiteResult:
    suites = (run_expectation_suite, run_soundness_suite, run_law_suite,
              run_equivalence_suite, run_subsumption_suite, run_mutant_suite)
    return SuiteResult([suite(cases) for suite in suites])
