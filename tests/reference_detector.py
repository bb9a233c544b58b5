"""The pairwise race check as it stood before the exclusion-mask sweep:
``detect`` re-evaluated every component predicate per record pair, a
disabled component answering top, and ``ablate`` ran it once per predicate
subset.  Kept only as the reference the detector's masks are compared
against; it renders its own copy of the report JSON.  Also the distinct
site pairs of a report, which only tests read."""

from __future__ import annotations

import itertools
import json

from racedigest.detector import BESPOKE, GENERIC
from racedigest.digest import MhpVerdict, generic_mhp
from racedigest.model import WRITE

DISABLED = "disabled"


class ReferenceReport:
    def __init__(self, digests, modes, flagged, verdicts, record_counts):
        self.digests = digests
        self.modes = modes
        self.flagged = flagged  # sorted site key -> witness digests
        self.verdicts = verdicts  # site key -> ((digest, verdict), ...) of its witness
        self.record_counts = record_counts

    def to_json_text(self) -> str:
        payload = {
            "version": 1,
            "digests": list(self.digests),
            "modes": {k: self.modes[k] for k in sorted(self.modes)},
            "accesses": {g: self.record_counts[g] for g in sorted(self.record_counts)},
            "flagged": [
                {
                    "global": key[0],
                    "a": {"site": key[1][0], "type": key[1][1]},
                    "b": {"site": key[2][0], "type": key[2][1]},
                    "witness_digests": list(witness),
                    "verdicts": [
                        {"digest": name, "verdict": v} for name, v in self.verdicts[key]
                    ],
                }
                for key, witness in self.flagged.items()
            ],
            "race_free": not self.flagged,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reference_detect(sol, product, modes=None) -> ReferenceReport:
    names = [c.name for c in product.components]
    modes = dict(modes or {})
    for name in names:
        modes.setdefault(name, BESPOKE)

    def verdicts(glob, d0, d1):
        out = []
        for comp, a, b in zip(product.components, d0, d1):
            mode = modes[comp.name]
            if mode == DISABLED:
                v = MhpVerdict.TOP
            elif mode == GENERIC:
                v = generic_mhp(comp, glob, a, b)
            else:
                v = comp.mhp(glob, a, b)
            out.append((comp.name, v))
        return out

    flagged: dict[tuple, tuple[str, str]] = {}
    witness_verdicts = {}
    record_counts = {}
    for glob in sorted(sol.races):
        records = sorted(
            sol.records(glob),
            key=lambda r: (r.site, r.type, product.format_elem(r.digest)),
        )
        record_counts[glob] = len(records)
        for i, r0 in enumerate(records):
            for r1 in records[i:]:
                if WRITE not in (r0.type, r1.type):
                    continue
                vs = verdicts(glob, r0.digest, r1.digest)
                # the meet of the verdicts: FALSE if any is FALSE
                if any(v is MhpVerdict.FALSE for _, v in vs):
                    continue
                site_a, site_b = sorted(((r0.site, r0.type), (r1.site, r1.type)))
                key = (glob, site_a, site_b)
                if key not in flagged:
                    flagged[key] = (product.format_elem(r0.digest),
                                    product.format_elem(r1.digest))
                    witness_verdicts[key] = tuple((n, v.value) for n, v in vs)
    return ReferenceReport(
        tuple(names),
        modes,
        dict(sorted(flagged.items())),
        witness_verdicts,
        record_counts,
    )


def reference_ablate(sol, product) -> list[dict]:
    names = [c.name for c in product.components]
    rows = []
    for subset in (s for k in range(len(names) + 1) for s in itertools.combinations(names, k)):
        modes = {n: (BESPOKE if n in subset else DISABLED) for n in names}
        flagged = len(reference_detect(sol, product, modes).flagged)
        rows.append({"predicates": list(subset), "flagged": flagged, "race_free": flagged == 0})
    return rows


def distinct_site_pairs(report) -> set:
    """The flagged keys of ``report`` whose two sites differ."""
    return {key for key in report.flagged if key[1] != key[2]}
