"""The pairwise race check as it stood before the exclusion-mask sweep:
``detect`` re-evaluated every component predicate per record pair and
``ablate`` ran it once per predicate subset.  Kept only as the reference
the sweep is compared against."""

from __future__ import annotations

import itertools

from racedigest.detector import BESPOKE, DISABLED, GENERIC, FlaggedPair, RaceReport
from racedigest.digest import MhpVerdict, generic_mhp
from racedigest.model import WRITE


def reference_detect(sol, product, modes=None) -> RaceReport:
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

    flagged: dict[tuple, FlaggedPair] = {}
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
                meet = MhpVerdict.TOP
                for _, v in vs:
                    meet = meet.meet(v)
                if meet is not MhpVerdict.TOP:
                    continue
                site_a, site_b = sorted(((r0.site, r0.type), (r1.site, r1.type)))
                key = (glob, site_a, site_b)
                if key not in flagged:
                    flagged[key] = FlaggedPair(
                        glob,
                        site_a,
                        site_b,
                        witness_digests=(
                            product.format_elem(r0.digest),
                            product.format_elem(r1.digest),
                        ),
                        component_verdicts=tuple((n, v.value) for n, v in vs),
                    )
    return RaceReport(
        digests=tuple(names),
        modes=modes,
        flagged=sorted(flagged.values(), key=FlaggedPair.sort_key),
        record_counts=record_counts,
    )


def reference_ablate(sol, product) -> list[dict]:
    names = [c.name for c in product.components]
    rows = []
    for k in range(len(names) + 1):
        for subset in itertools.combinations(names, k):
            modes = {n: (BESPOKE if n in subset else DISABLED) for n in names}
            report = reference_detect(sol, product, modes)
            rows.append(
                {
                    "predicates": list(subset),
                    "flagged": report.pair_count,
                    "race_free": report.pair_count == 0,
                }
            )
    return rows
