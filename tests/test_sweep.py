"""The detector's exclusion masks against the pairwise reference loop:
every predicate subset read off one bespoke report, whole reports and
ablation rows must match byte for byte."""

from __future__ import annotations

import itertools

import pytest

from racedigest.detector import BESPOKE, GENERIC, ablate, detect
from racedigest.digests import CANONICAL_ORDER, ProductDigest, build_digests
from racedigest.dsl import parse_program
from racedigest.model import instrument_atomicity
from racedigest.solver import build_system, solve

from tests.conftest import CORPUS_DIR, GENERATED, corpus_program
from tests.reference_detector import DISABLED, reference_ablate, reference_detect


def locked_program(n: int, k: int, b: int) -> str:
    """N prototypes of B blocks, each a write and a read of the K globals
    under one of two mutexes, every third block inside its own once.  Main
    starts each prototype twice but joins only the first instance, then
    writes g0, so one site pair has record pairs with different masks."""
    onces = [f"o{i}_{j}" for i in range(n) for j in range(b) if j % 3 == 2]
    lines = [f"global g{i}" for i in range(k)] + ["mutex a0", "mutex a1"]
    lines += [f"once {o}" for o in onces]
    lines += ["", "main:", "  init a0", "  init a1"]
    lines += [f"  initO {o}" for o in onces]
    lines += [f"  create t{i} as {e}{i}" for i in range(n) for e in "ef"]
    lines += [f"  join e{i}" for i in range(n)] + ["  g0 = 1"]
    for i in range(n):
        lines += ["", f"t{i}:"]
        for j in range(b):
            m = (i + j) % 2
            block = [f"lock a{m}", f"g{(i * b + j) % k} = {j}", f"x = g{(i + j) % k}", f"unlock a{m}"]
            if j % 3 == 2:
                block = [f"once o{i}_{j}"] + ["  " + s for s in block] + ["end"]
            lines += ["  " + s for s in block]
    return "\n".join(lines) + "\n"


PROGRAMS = sorted(p.parent.name for p in CORPUS_DIR.glob("*/program.rlp")) + ["locked-4/4/6"]

SUBSETS = [
    subset
    for k in range(len(CANONICAL_ORDER) + 1)
    for subset in itertools.combinations(CANONICAL_ORDER, k)
]
WHOLE_REPORT_MODES = [
    {n: BESPOKE for n in CANONICAL_ORDER},
    {n: GENERIC for n in CANONICAL_ORDER},
    {"lockset": GENERIC},
]


def _program(name: str):
    if name == "locked-4/4/6":
        return instrument_atomicity(parse_program(locked_program(4, 4, 6)))
    if name in GENERATED:
        return instrument_atomicity(parse_program(GENERATED[name]))
    return corpus_program(name)


@pytest.mark.parametrize("name", PROGRAMS + sorted(GENERATED))
def test_report_keys_are_inserted_sorted(name):
    # so every read of the report, ``flagged`` included, lists its keys
    # sorted without sorting them
    product = ProductDigest(build_digests(CANONICAL_ORDER))
    report = detect(solve(build_system(_program(name), product)), product)
    assert list(report.masks) == sorted(report.masks)
    assert list(report.flagged) == sorted(report.flagged)


@pytest.mark.parametrize("name", PROGRAMS)
def test_sweep_matches_pairwise_reference(name):
    product = ProductDigest(build_digests(CANONICAL_ORDER))
    sol = solve(build_system(_program(name), product))
    for modes in WHOLE_REPORT_MODES:
        want = reference_detect(sol, product, modes)
        assert detect(sol, product, modes).to_json_text() == want.to_json_text(), modes

    def read_off(report, subset, reference_modes):
        # the reference disables every component outside the subset
        want = reference_detect(sol, product, reference_modes)
        enabled = report.mask_of(subset)
        assert report.witnesses(enabled) == want.flagged, reference_modes

    bespoke = detect(sol, product)
    for subset in SUBSETS:
        disabled = {n: DISABLED for n in CANONICAL_ORDER if n not in subset}
        read_off(bespoke, subset, disabled)
    mixed = {"tid": GENERIC, "once": DISABLED, "lockset": DISABLED}
    read_off(
        detect(sol, product, {"tid": GENERIC}),
        [n for n in CANONICAL_ORDER if mixed.get(n) != DISABLED],
        mixed,
    )
    assert ablate(sol, product) == reference_ablate(sol, product)


def test_generated_program_has_flagged_and_excluded_pairs():
    product = ProductDigest(build_digests(CANONICAL_ORDER))
    sol = solve(build_system(_program("locked-4/4/6"), product))
    counts = [row["flagged"] for row in ablate(sol, product)]
    assert counts[0] > counts[-1] > 0
