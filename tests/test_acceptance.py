"""Acceptance gate: every published claim of the package, one line each.

Each criterion reuses the corresponding verification suite (the same code
the `iwa verify` command runs), asserts its stated tolerance, and checks
the advertised runtime budget where one exists.
"""

import hashlib
import json
import pathlib
import time

import pytest

from iwa.verify import DEFAULT_SEED, SUITES


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name in ("lin", "padic", "dims", "vanish", "roundtrip", "admissible", "gauss"):
        t0 = time.perf_counter()
        rep = SUITES[name](DEFAULT_SEED)
        rep["elapsed"] = time.perf_counter() - t0
        out[name] = rep
    return out


def check(report, fragment):
    for c in report["checks"]:
        if fragment in c["statement"]:
            return c
    raise KeyError(f"no check matching {fragment!r}")


def test_01_divisibility_agrees_with_slot_vanishing(reports, criterion_line):
    rep = reports["lin"]
    rand = check(rep, "random elements")
    built = check(rep, "constructed multiples")
    ok = (
        rand["passed"]
        and built["passed"]
        and rand["total"] >= 500
        and built["total"] >= 200
        and rep["elapsed"] < 30
    )
    criterion_line(
        1,
        f"divisibility criterion == slot vanishing on {rand['total']}+"
        f"{built['total']} elements, p in {{3,5}}, n <= 4, under 30s",
        ok,
    )


def test_02_exact_quotients_remultiply(reports, criterion_line):
    c = check(reports["lin"], "re-multiply")
    criterion_line(
        2,
        f"quotient times divisor returns dividend bit-for-bit ({c['total']} cases)",
        c["passed"],
    )


def test_03_decompose_compose_round_trip(reports, criterion_line):
    rep = reports["roundtrip"]
    coset = check(rep, "re-multiplication")
    back = check(rep, "re-composition")
    floor = check(rep, "integrality floor")
    ok = (
        coset["passed"]
        and back["passed"]
        and floor["passed"]
        and coset["total"] >= 100
        and rep["elapsed"] < 120
    )
    criterion_line(
        3,
        f"signed decomposition round trip on {coset['total']} pairs with bounded "
        "components, under 2min",
        ok,
    )


def test_04_admissibility_identity(reports, criterion_line):
    rep = reports["admissible"]
    pairs = check(rep, "composed pairs satisfy")
    info = check(rep, "informationally")
    mech = check(rep, "parity vanishing")
    criterion_line(
        4,
        "composed pairs pass the signed interpolation identity at every enforced "
        "conductor index; opposite-parity vanishing scan confirms the mechanism",
        pairs["passed"] and info["passed"] and mech["passed"],
    )


def test_05_vanishing_locus_exact(reports, criterion_line):
    rep = reports["vanish"]
    locus = check(rep, "parity prediction")
    simple = check(rep, "simple")
    criterion_line(
        5,
        f"half-log zero set equals parity prediction over "
        f"{locus['characters_scanned']} factor evaluations, all zeros simple",
        locus["passed"] and simple["passed"],
    )


def test_06_dimension_table(reports, criterion_line):
    rep = reports["dims"]
    c = check(rep, "closed dimension formulas")
    # at p=5, n=3 the exact minus rank and the closed formula
    # (p-1) + p(p-1)^2 = 4 + 80 are both 84
    ok = (
        c["passed"]
        and c["table"]["p=3,n=2"] == [5, 2]
        and c["table"]["p=3,n=3"] == [5, 14]
        and c["table"]["p=3,n=4"] == [41, 14]
        and c["table"]["p=5,n=2"] == [17, 4]
        and c["table"]["p=5,n=3"] == [17, 84]
        and rep["elapsed"] < 60
    )
    criterion_line(
        6,
        "signed dimension table matches the closed formulas exactly "
        "(minus rank 84 at p=5, n=3), under 1min",
        ok,
    )


def test_07_subspace_definitions_coincide(reports, criterion_line):
    c = check(reports["dims"], "coincide")
    criterion_line(
        7,
        "trace-condition and orbit-span subspaces are equal at every tested (p, n)",
        c["passed"],
    )


def test_08_valuation_growth(reports, criterion_line):
    c = check(reports["padic"], "grows by exactly n")
    criterion_line(
        8,
        f"one-unit power valuation growth matches big-integer oracle "
        f"({c['total']} samples, n <= 6)",
        c["passed"] and c["total"] >= 100,
    )


def test_09_saturated_twist_units(reports, criterion_line):
    c = check(reports["lin"], "saturated twisted one-units")
    criterion_line(
        9,
        "saturated-level twisted factors are one-units with verified inverses; "
        "the untwisted factor collapses to exactly 1",
        c["passed"],
    )


def test_10_orbit_rank_law_and_normal_basis(reports, criterion_line):
    rep = reports["dims"]
    law = check(rep, "support law")
    nb = check(rep, "normal basis")
    criterion_line(
        10,
        f"orbit rank obeys the support law on {law['total']} sparse combinations; "
        "summed roots generate a normal basis at p=3, n <= 3",
        law["passed"] and nb["passed"] and law["total"] >= 200,
    )


def test_11_constraint_count_dimensions(reports, criterion_line):
    c = check(reports["dims"], "5, 5, 41")
    criterion_line(
        11,
        "group-algebra constraint count equals the plus span: 5, 5, 41 "
        "at p=3, n=2..4",
        c["passed"],
    )


def test_12_gauss_sum_norms(reports, criterion_line):
    c = check(reports["gauss"], "conductor")
    criterion_line(
        12,
        f"Gauss sum norm identity holds for all {c['total']} characters of "
        "conductor up to p^3, p in {3,5}",
        c["passed"] and c["total"] == 116,
    )


def test_suite_reports_byte_identical_to_golden(reports):
    """Every suite report still hashes to its recorded output.

    The golden file holds the SHA-256 of what `iwa verify --suite <name>
    --seed 715517` prints; regenerate it only for a deliberate change to a
    report, recorded in CHANGES.md.
    """
    golden = json.loads(
        (pathlib.Path(__file__).parent / "golden" / "verify_715517.json").read_text()
    )
    got = {}
    for name, rep in reports.items():
        text = json.dumps(
            {k: v for k, v in rep.items() if k != "elapsed"}, sort_keys=True, indent=2
        )
        got[name] = hashlib.sha256((text + "\n").encode()).hexdigest()
    assert got == golden
