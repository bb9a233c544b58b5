"""Post-processing race check and report construction.

Every ordered pair of recorded accesses to a global (identical records
included, since equal digests can still belong to different concrete
threads) is flagged when at least one side writes and the active predicate
meet answers top.  Each product component runs in one of three modes:

* ``bespoke``  -- the digest's own predicate,
* ``generic``  -- the predicate derived from the atomicity-lock step,
* ``disabled`` -- always top (the digest still refines reachability, only
  its exclusion power is switched off).

One sweep over the record pairs keeps, per site pair, the distinct sets of
components whose predicates answer false (as bitmasks).  ``detect`` sweeps
under its modes, a disabled component setting no bit; ``ablate`` runs one
bespoke sweep and reads all 2^k predicate subsets off its masks, so it
disables no component.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
from dataclasses import dataclass, field

from .digest import MhpVerdict, ProductDigest, generic_mhp
from .model import WRITE
from .solver import Solution

BESPOKE = "bespoke"
GENERIC = "generic"
DISABLED = "disabled"


@dataclass(frozen=True)
class FlaggedPair:
    glob: str
    site_a: tuple[str, str]  # (node, W/R); site_a <= site_b
    site_b: tuple[str, str]
    witness_digests: tuple[str, str] = field(compare=False)
    component_verdicts: tuple = field(compare=False)

    def sort_key(self) -> tuple:
        return (self.glob, self.site_a, self.site_b)


@dataclass
class RaceReport:
    digests: tuple[str, ...]
    modes: dict
    flagged: list[FlaggedPair]
    record_counts: dict

    @property
    def pair_count(self) -> int:
        return len(self.flagged)

    def distinct_site_pairs(self) -> set:
        return {
            (f.glob, f.site_a, f.site_b)
            for f in self.flagged
            if f.site_a != f.site_b
        }

    def site_pairs(self) -> set:
        return {(f.glob, f.site_a, f.site_b) for f in self.flagged}

    def to_json(self) -> dict:
        return {
            "version": 1,
            "digests": list(self.digests),
            "modes": {k: self.modes[k] for k in sorted(self.modes)},
            "accesses": {g: self.record_counts[g] for g in sorted(self.record_counts)},
            "flagged": [
                {
                    "global": f.glob,
                    "a": {"site": f.site_a[0], "type": f.site_a[1]},
                    "b": {"site": f.site_b[0], "type": f.site_b[1]},
                    "witness_digests": list(f.witness_digests),
                    "verdicts": [
                        {"digest": name, "verdict": v} for name, v in f.component_verdicts
                    ],
                }
                for f in sorted(self.flagged, key=FlaggedPair.sort_key)
            ],
            "race_free": not self.flagged,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def to_text(self, program=None) -> str:
        lines = [
            f"digests: {', '.join(self.digests)}",
            "modes: " + ", ".join(f"{k}={self.modes[k]}" for k in sorted(self.modes)),
        ]
        if not self.flagged:
            lines.append("no potential races found")
        for f in sorted(self.flagged, key=FlaggedPair.sort_key):
            loc_a = _site_text(f.site_a, program)
            loc_b = _site_text(f.site_b, program)
            lines.append(f"race on {f.glob}: {loc_a} with {loc_b}")
        return "\n".join(lines) + "\n"


def _site_text(site: tuple[str, str], program) -> str:
    node, typ = site
    suffix = ""
    if program is not None:
        for e in program.edges_from(node):
            if e.line is not None:
                suffix = f" (line {e.line})"
                break
    return f"{typ}@{node}{suffix}"


def _resolve_modes(product: ProductDigest, modes: dict | None) -> dict:
    names = [c.name for c in product.components]
    modes = dict(modes or {})
    for name in names:
        modes.setdefault(name, BESPOKE)
    unknown = set(modes) - set(names)
    if unknown:
        raise ValueError(f"modes for inactive digests: {sorted(unknown)}")
    for mode in modes.values():
        if mode not in (BESPOKE, GENERIC, DISABLED):
            raise ValueError(f"unknown mode {mode!r}")
    return modes


@dataclass
class ExclusionSweep:
    """The distinct excluded-by masks of every (global, site_a, site_b) key.

    Bit ``i`` of a mask is set when component ``i``'s predicate answers
    false for a record pair.  ``entries`` maps each key to its masks, in
    order of first appearance among the key's record pairs, each with the
    formatted digests of the first record pair that produced it.  Under a
    set of enabled predicates a key is flagged when some mask is disjoint
    from it, and the first such mask's pair is the witness.  A key's masks
    end at the first 0: every later pair would be a later witness of the
    same sets.
    """

    names: tuple[str, ...]
    entries: dict
    record_counts: dict

    def mask_of(self, names) -> int:
        return sum(1 << i for i, n in enumerate(self.names) if n in names)

    def witnesses(self, enabled: int) -> dict:
        """Flagged key -> formatted digests of its witnessing record pair."""
        out = {}
        for key, masks in self.entries.items():
            for mask, pair in masks.items():
                if not mask & enabled:
                    out[key] = pair
                    break
        return out

    def site_pairs(self, enabled: int) -> set:
        return {
            key
            for key, masks in self.entries.items()
            if any(not mask & enabled for mask in masks)
        }


def _key_masks(glob: str, rows: list, cols: list, tables: list) -> dict:
    """Distinct masks of the record pairs rows x cols, in pair order; the
    pairs within one group (rows is cols) run over i <= j."""
    masks: dict = {}
    same = rows is cols
    for n, (i, label_i) in enumerate(rows):
        for j, label_j in cols[n:] if same else cols:
            m = 0
            for bit, ids, values, width, pred, cache in tables:
                key = ids[i] * width + ids[j]
                v = cache.get(key)
                if v is None:
                    excluded = pred(glob, values[ids[i]], values[ids[j]]) is MhpVerdict.FALSE
                    v = cache[key] = bit if excluded else 0
                m |= v
            if m not in masks:
                masks[m] = (label_i, label_j)
                if not m:
                    return masks
    return masks


def sweep(sol: Solution, product: ProductDigest, modes: dict) -> ExclusionSweep:
    """One pass over every record pair with at least one write (identical
    records included, since equal digests can still belong to different
    concrete threads).  ``modes`` names each component's predicate; a
    disabled component sets no bit.  Each predicate runs once per distinct
    pair of component values: every shipped ``mhp`` is pure, and the
    values repeat heavily across records."""
    predicates = []
    for i, comp in enumerate(product.components):
        if modes[comp.name] == BESPOKE:
            predicates.append((i, comp.mhp))
        elif modes[comp.name] == GENERIC:
            predicates.append((i, functools.partial(generic_mhp, comp)))
    entries: dict = {}
    record_counts = {}
    for glob in sorted(sol.races):
        records = sorted(
            ((r.site, r.type, product.format_elem(r.digest), r.digest) for r in sol.records(glob)),
            key=lambda r: r[:3],
        )
        record_counts[glob] = len(records)
        tables = []
        for i, pred in predicates:
            index: dict = {}
            ids = [index.setdefault(r[3][i], len(index)) for r in records]
            tables.append((1 << i, ids, list(index), len(index), pred, {}))
        groups = [
            (site, [(i, r[2]) for i, r in members])
            for site, members in itertools.groupby(enumerate(records), key=lambda x: x[1][:2])
        ]
        for g, (site_a, rows) in enumerate(groups):
            for site_b, cols in groups[g:]:
                if WRITE in (site_a[1], site_b[1]):
                    entries[(glob, site_a, site_b)] = _key_masks(glob, rows, cols, tables)
    return ExclusionSweep(
        tuple(c.name for c in product.components), entries, record_counts
    )


def detect(sol: Solution, product: ProductDigest, modes: dict | None = None) -> RaceReport:
    """Race check over the solution's access accumulators: a site pair is
    flagged when some record pair of it has no enabled predicate answering
    false."""
    modes = _resolve_modes(product, modes)
    swept = sweep(sol, product, modes)
    enabled = swept.mask_of([n for n in swept.names if modes[n] != DISABLED])
    # a witness pair has no enabled predicate answering false
    verdicts = tuple((n, MhpVerdict.TOP.value) for n in swept.names)
    flagged = [
        FlaggedPair(glob, site_a, site_b, witness, verdicts)
        for (glob, site_a, site_b), witness in swept.witnesses(enabled).items()
    ]
    return RaceReport(
        digests=swept.names,
        modes=modes,
        flagged=sorted(flagged, key=FlaggedPair.sort_key),
        record_counts=swept.record_counts,
    )


def ablate(sol: Solution, product: ProductDigest) -> list[dict]:
    """Flag counts for every subset of predicates, the digests themselves
    staying active (only their exclusion power is varied): one bespoke
    sweep, then a mask test per subset and distinct mask list."""
    names = [c.name for c in product.components]
    swept = sweep(sol, product, {n: BESPOKE for n in names})
    shapes = collections.Counter(tuple(masks) for masks in swept.entries.values())
    rows = []
    for k in range(len(names) + 1):
        for subset in itertools.combinations(names, k):
            enabled = swept.mask_of(subset)
            flagged = sum(
                n for masks, n in shapes.items() if any(not m & enabled for m in masks)
            )
            rows.append(
                {
                    "predicates": list(subset),
                    "flagged": flagged,
                    "race_free": flagged == 0,
                }
            )
    return rows
