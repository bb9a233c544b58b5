"""Post-processing race check, report construction and predicate ablation.

A record pair is an ordered pair of recorded accesses to a global with at
least one write (identical records included, since equal digests can still
belong to different concrete threads).  Each product component's predicate
runs in one of two modes:

* ``bespoke`` -- the digest's own predicate,
* ``generic`` -- the predicate derived from the atomicity-lock step.

``detect`` makes one pass over the record pairs.  Its report keeps, per
site pair, the distinct *exclusion masks*: the sets of components whose
predicates answer false for a record pair, as bitmasks.  A predicate
subset is a mask read: a site pair is flagged under it when some mask is
disjoint from the subset.  ``flagged`` is the read with every predicate
enabled; ``ablate``, the conformance suites and the tests read every other
subset off one bespoke report.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
from json.encoder import encode_basestring_ascii

from .digests import ProductDigest, generic_mhp
from .model import WRITE, Program
from .solver import Solution

BESPOKE = "bespoke"
GENERIC = "generic"


def predicate_subsets(names) -> list[tuple[str, ...]]:
    """Every subset of ``names``, smallest first, each in ``names`` order."""
    return [s for k in range(len(names) + 1) for s in itertools.combinations(names, k)]


class RaceReport:
    """The distinct exclusion masks of every (global, site_a, site_b) key.

    Bit ``i`` of a mask is set when component ``i``'s predicate answers
    false for a record pair.  ``masks`` maps each key to its masks, in order
    of first appearance among the key's record pairs, each with the
    formatted digests of the first record pair that produced it.  Under a
    set of enabled predicates a key is flagged when some mask is disjoint
    from it, and the first such mask's pair is the witness.  A key's masks
    end at the first 0: every later pair would be a later witness of the
    same sets.  ``detect`` inserts the keys in sorted order, so every read
    lists its keys sorted.  ``flagged`` is the witness map with every
    predicate enabled, built on first use.
    """

    def __init__(self, digests: tuple[str, ...], modes: dict, masks: dict,
                 record_counts: dict) -> None:
        self.digests, self.modes, self.masks = digests, modes, masks
        self.record_counts = record_counts

    @functools.cached_property
    def flagged(self) -> dict:
        return self.witnesses(self.mask_of(self.digests))

    def mask_of(self, names) -> int:
        return sum(1 << i for i, n in enumerate(self.digests) if n in names)

    def witnesses(self, enabled: int) -> dict:
        """Flagged key -> formatted digests of its witnessing record pair."""
        out = {}
        for key, masks in self.masks.items():
            for mask, pair in masks.items():
                if not mask & enabled:
                    out[key] = pair
                    break
        return out

    def to_json_text(self) -> str:
        """The JSON report, as ``json.dumps(..., indent=2, sort_keys=True)
        + "\\n"`` lays it out, written without per-pair dicts: each flagged
        pair fills one template through the C string encoder, and the
        verdicts block, the same for every pair, is rendered once."""
        return "".join(self._json_chunks())

    def _json_chunks(self):
        enc = encode_basestring_ascii
        # a witness pair has no predicate answering false
        verdicts = [{"digest": name, "verdict": "top"} for name in self.digests]
        first = _PAIR_TEMPLATE.replace("VERDICTS", _nested(verdicts, 3).replace("%", "%%"))
        later = ",\n" + first
        fields = {
            "version": "1",
            "digests": _nested(list(self.digests), 1),
            "modes": _nested(self.modes, 1),
            "accesses": _nested(self.record_counts, 1),
            "race_free": "false" if self.flagged else "true",
            "flagged": None if self.flagged else "[]",
        }
        opener = "{"
        for key, text in sorted(fields.items()):
            yield f"{opener}\n  {enc(key)}: "
            opener = ","
            if text is not None:
                yield text
                continue
            yield "[\n"
            for i, ((glob, (a, ta), (b, tb)), (wa, wb)) in enumerate(self.flagged.items()):
                yield (later if i else first) % (
                    enc(a), enc(ta), enc(b), enc(tb), enc(glob), enc(wa), enc(wb))
            yield "\n  ]"
        yield "\n}\n"

    def to_text(self, program: Program) -> str:
        lines = [
            f"digests: {', '.join(self.digests)}",
            "modes: " + ", ".join(f"{k}={self.modes[k]}" for k in sorted(self.modes)),
        ]
        if not self.flagged:
            lines.append("no potential races found")
        for glob, site_a, site_b in self.flagged:
            loc_a = _site_text(site_a, program)
            loc_b = _site_text(site_b, program)
            lines.append(f"race on {glob}: {loc_a} with {loc_b}")
        return "\n".join(lines) + "\n"


# one flagged pair of the JSON report, as json.dumps(indent=2, sort_keys=True)
# writes it two levels deep
_PAIR_TEMPLATE = """\
    {
      "a": {
        "site": %s,
        "type": %s
      },
      "b": {
        "site": %s,
        "type": %s
      },
      "global": %s,
      "verdicts": VERDICTS,
      "witness_digests": [
        %s,
        %s
      ]
    }"""


def _nested(value, level: int) -> str:
    """``value`` as json.dumps(indent=2, sort_keys=True) writes it ``level``
    levels deep (a JSON text has no raw newline inside a string)."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level)


def _site_text(site: tuple[str, str], program: Program) -> str:
    node, typ = site
    (access,) = program.edges_from(node)  # an access site's one edge out
    return f"{typ}@{node}" if access.line is None else f"{typ}@{node} (line {access.line})"


def _resolve_modes(product: ProductDigest, modes: dict | None) -> dict:
    names = [c.name for c in product.components]
    modes = dict(modes or {})
    for name in names:
        modes.setdefault(name, BESPOKE)
    unknown = set(modes) - set(names)
    if unknown:
        raise ValueError(f"modes for inactive digests: {sorted(unknown)}")
    for mode in modes.values():
        if mode not in (BESPOKE, GENERIC):
            raise ValueError(f"unknown mode {mode!r}")
    return modes


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
                    v = cache[key] = 0 if pred(glob, values[ids[i]], values[ids[j]]) else bit
                m |= v
            if m not in masks:
                masks[m] = (label_i, label_j)
                if not m:
                    return masks
    return masks


def detect(sol: Solution, product: ProductDigest, modes: dict | None = None) -> RaceReport:
    """One pass over every record pair of the solution's access
    accumulators, each component's predicate in the mode ``modes`` names
    (default bespoke).  Each predicate runs once per distinct pair of
    component values: every shipped ``mhp`` is pure, and the values repeat
    heavily across records.  The report's keys are inserted in sorted
    order: globals sorted, then the (site, type) groups of the sorted
    records, each with itself and every later group.  ``product`` must be
    the solution's own, ``sol.system.digest``; any other is refused."""
    if product is not sol.system.digest:
        raise ValueError(f"product {product.name} is not the one the solution was solved for")
    modes = _resolve_modes(product, modes)
    predicates = [
        comp.mhp if modes[comp.name] == BESPOKE else functools.partial(generic_mhp, comp)
        for comp in product.components
    ]
    masks: dict = {}
    record_counts = {}
    for glob in sorted(sol.races):
        records = sorted(
            ((r.site, r.type, product.format_elem(r.digest), r.digest) for r in sol.records(glob)),
            key=lambda r: r[:3],
        )
        record_counts[glob] = len(records)
        tables = []
        for i, pred in enumerate(predicates):
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
                    masks[(glob, site_a, site_b)] = _key_masks(glob, rows, cols, tables)
    return RaceReport(tuple(c.name for c in product.components), modes, masks, record_counts)


def ablate(sol: Solution, product: ProductDigest) -> list[dict]:
    """Flag counts for every subset of predicates, the digests themselves
    staying active (only their exclusion power is varied): one bespoke
    report, then a mask test per subset and distinct mask list.  Like
    ``detect``, it refuses a ``product`` other than ``sol.system.digest``."""
    report = detect(sol, product)
    shapes = collections.Counter(tuple(masks) for masks in report.masks.values())
    rows = []
    for subset in predicate_subsets(report.digests):
        enabled = report.mask_of(subset)
        flagged = sum(n for masks, n in shapes.items() if any(not m & enabled for m in masks))
        rows.append({"predicates": list(subset), "flagged": flagged, "race_free": flagged == 0})
    return rows
