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

``RaceReport.to_json_text`` and ``to_text`` render the flagged pairs from
pieces made once per site, global and witness.  Given a stream they write
the report to it in blocks as they go, which is how ``analyze`` prints
it; without one they return the whole text.
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

    def to_json_text(self, out=None) -> str | None:
        """The JSON report, as ``json.dumps(..., indent=2, sort_keys=True)
        + "\\n"`` lays it out, written without per-pair dicts.  A flagged
        pair is one f-string of pieces made once per report: each site
        block, global and witness is encoded on first use, and the verdicts
        block, the same for every pair, is rendered once.  Returned as one
        string, or, given the text stream ``out``, written to it in blocks
        (``_emit``) and None returned."""
        return _emit(self._json_chunks(), out)

    def _json_chunks(self):
        enc = encode_basestring_ascii
        # a witness pair has no predicate answering false
        verdicts = _nested([{"digest": name, "verdict": "top"} for name in self.digests], 3)
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
            sites = _Memo(lambda site: (f'{{\n        "site": {enc(site[0])},\n'
                                            f'        "type": {enc(site[1])}\n      }}'))
            strings = _Memo(enc)
            sep = ""
            for (glob, a, b), (wa, wb) in self.flagged.items():
                # one flagged pair, as json.dumps(indent=2, sort_keys=True)
                # writes it two levels deep
                yield (f'{sep}    {{\n'
                       f'      "a": {sites[a]},\n'
                       f'      "b": {sites[b]},\n'
                       f'      "global": {strings[glob]},\n'
                       f'      "verdicts": {verdicts},\n'
                       f'      "witness_digests": [\n'
                       f'        {strings[wa]},\n'
                       f'        {strings[wb]}\n'
                       f'      ]\n'
                       f'    }}')
                sep = ",\n"
            yield "\n  ]"
        yield "\n}\n"

    def to_text(self, program: Program, out=None) -> str | None:
        """One line per flagged pair, after the digests and modes; returned
        or written like ``to_json_text``.  Each site's text is made once."""
        return _emit(self._text_lines(program), out)

    def _text_lines(self, program: Program):
        yield f"digests: {', '.join(self.digests)}\n"
        yield "modes: " + ", ".join(f"{k}={self.modes[k]}" for k in sorted(self.modes)) + "\n"
        if not self.flagged:
            yield "no potential races found\n"
        sites = _Memo(lambda site: _site_text(site, program))
        for glob, site_a, site_b in self.flagged:
            yield f"race on {glob}: {sites[site_a]} with {sites[site_b]}\n"


class _Memo(dict):
    """key -> ``fn(key)``, computed on first use."""

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


# at least this many characters go to the stream in one write: with
# unbuffered output every write is a system call
_BLOCK_CHARS = 1 << 16


def _emit(chunks, out) -> str | None:
    """The concatenated ``chunks`` when ``out`` is None; otherwise None,
    after writing them to ``out`` in blocks of at least ``_BLOCK_CHARS``
    characters (the last block may be shorter), never holding more than
    one block."""
    if out is None:
        return "".join(chunks)
    block, size = [], 0
    for chunk in chunks:
        block.append(chunk)
        size += len(chunk)
        if size >= _BLOCK_CHARS:
            out.write("".join(block))
            block, size = [], 0
    if block:
        out.write("".join(block))
    return None


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
    # a digest value recurs across records and globals: each is formatted once
    formatted = _Memo(product.format_elem)
    for glob in sorted(sol.races):
        records = sorted(
            ((r.site, r.type, formatted[r.digest], r.digest) for r in sol.records(glob)),
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
