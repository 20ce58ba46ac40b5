"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion NN] ...: PASS/FAIL` line (visible with
`pytest -s` or in captured output on failure).  Criteria with a runtime budget
assert the measured wall-clock time as well.
"""

import random
import time
from fractions import Fraction

import pytest

from sdlab.cli import main as cli_main
from sdlab.dedekind import dedekind_sum, voronoi_sum
from sdlab.identities import (
    SuiteRanges,
    check_cor510,
    check_prop1,
    check_prop1_ab,
    check_prop2,
    check_prop3,
    check_prop4,
    check_prop5,
    check_prop6,
    check_sawtooth_poly,
    random_semigroups,
    run_suite,
    summarize,
)
from sdlab.polyring import ONE, monomial
from sdlab.semigroup import (
    alexander_closed_form,
    torus_gaps_mordell,
    torus_semigroup,
)

from reference_oracles import coprime_pairs, pair_gaps


def _report(num: int, label: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[criterion {num:02d}] {label}: {status}{timing}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def population():
    """The seeded 20-semigroup population shared by criteria 3, 4 and 10."""
    return random_semigroups(20, random.Random(0))


def test_criterion_01_gap_set_oracle():
    start = time.perf_counter()
    ok = True
    for a, b in coprime_pairs(30, 2):
        ok = ok and torus_gaps_mordell(a, b) == pair_gaps(a, b)
    elapsed = time.perf_counter() - start
    _report(1, "closed-form gap sets match enumeration for 2<=a<b<=30", ok and elapsed < 5.0, elapsed)


def test_criterion_02_alexander_chain():
    ok = True
    for a, b in coprime_pairs(30, 2):
        S = torus_semigroup(a, b)
        alex = alexander_closed_form(a, b)
        ok = ok and alex == S.semigroup_poly()
        ok = ok and alex == ONE - (ONE - monomial(1)) * S.gap_poly()
        n = a * b
        ok = ok and alex == (ONE - monomial(1)) * S.hilbert_trunc(n) + monomial(n + 1)
        ok = ok and S.genus == (a - 1) * (b - 1) // 2
    _report(2, "Alexander polynomial chain and genus closed form, exact", ok)


def test_criterion_03_apery_floor_extraction(population):
    start = time.perf_counter()
    ok = True
    for a, b in coprime_pairs(30, 2):
        ok = ok and all(r.verdict == "pass" for r in check_prop1_ab(a, b))
    for S in population:
        for s in (s for s in range(1, 26) if S.contains(s)):
            ok = ok and all(r.verdict == "pass" for r in check_prop1(S, s))
    elapsed = time.perf_counter() - start
    _report(3, "floor data from gap polynomial, all pairs and 20 random semigroups", ok and elapsed < 30.0, elapsed)


def test_criterion_04_gap_poly_from_apery(population):
    ok = True
    for a, b in coprime_pairs(30, 2):
        S = torus_semigroup(a, b)
        for s in (a, b):
            ok = ok and S.gap_poly_from_apery(s) == S.gap_poly()
    for S in population:
        for s in (s for s in range(1, 26) if S.contains(s)):
            ok = ok and S.gap_poly_from_apery(s) == S.gap_poly()
    _report(4, "gap polynomial reassembled from every Apery set, exact", ok)


def test_criterion_05_voronoi_root_expansion():
    ok = True
    for a, b in coprime_pairs(12, 1):
        for m in range(1, 5):
            for n in range(1, 4):
                r = check_prop2(a, b, m, n)
                v = voronoi_sum(a, b, m, n)
                ok = ok and r.residual <= 1e-6 * (1 + v)
    for a, b in coprime_pairs(40, 1):
        for m in range(1, 5):
            r = check_prop2(a, b, m, 1)
            v = voronoi_sum(a, b, m, 1)
            ok = ok and r.residual <= 1e-8 * (1 + v)
    _report(5, "Voronoi sums vs both root-of-unity forms at stated tolerances", ok)


def test_criterion_06_exact_polynomial_identities():
    ok = True
    for a, b in coprime_pairs(20, 1):
        ok = ok and check_prop3(a, b).verdict == "pass"
        r_rep, _ = check_prop4(a, b)
        ok = ok and r_rep.verdict == "pass" and r_rep.residual == 0.0
        ok = ok and check_prop5(a, b).verdict == "pass"
        ok = ok and check_cor510(a, b).verdict == "pass"
        ok = ok and check_sawtooth_poly(a, b).verdict == "pass"
    _report(6, "bivariate/floor-sum identities exact for all pairs <= 20", ok)


def test_criterion_07_t11_expected_discrepancy():
    ok = True
    seen_discrepancy = False
    for a, b in coprime_pairs(12, 2):
        _, t_rep = check_prop4(a, b)
        if t_rep.verdict == "expected-discrepancy":
            seen_discrepancy = True
            ok = ok and t_rep.notes is not None and "display" in t_rep.notes
        else:
            ok = ok and t_rep.verdict == "pass"
    ok = ok and seen_discrepancy
    reports = run_suite(SuiteRanges(pairs_max=6, semigroups=0, identities=("prop4",)), seed=0)
    counts = summarize(reports)
    ok = ok and counts.get("fail", 0) == 0 and counts.get("expected-discrepancy", 0) > 0
    _report(7, "companion display emits audited expected-discrepancy, suite unaffected", ok)


def test_criterion_08_dedekind_sum_consistency():
    ok = True
    for a, b in coprime_pairs(50, 1):
        exact = dedekind_sum(a, b, "sawtooth")
        ok = ok and dedekind_sum(a, b, "voronoi") == exact
        ok = ok and abs(dedekind_sum(a, b, "cotangent") - exact) < 1e-9
    for a, b in coprime_pairs(40, 1):
        lhs = dedekind_sum(a, b) + dedekind_sum(b, a)
        rhs = Fraction(-1, 4) + (Fraction(a, b) + Fraction(b, a) + Fraction(1, a * b)) / 12
        ok = ok and lhs == rhs
    _report(8, "Dedekind sum routes agree; reciprocity oracle exact", ok)


def test_criterion_09_v11_root_sum():
    ok = True
    for a, b in coprime_pairs(50, 1):
        r = check_prop6(a, b)
        v = voronoi_sum(a, b, 1, 1)
        ok = ok and r.residual <= 1e-8 * (1 + v)
    ok = ok and voronoi_sum(3, 5, 1, 1) == 13
    ok = ok and Fraction((3 - 1) * (5 - 1) ** 2, 4) == 8
    _report(9, "V_{1,1} root-of-unity formula within 1e-8, spot values", ok)


def test_criterion_10_quotient_genus(population):
    ok = True
    cases = list(population) + [torus_semigroup(a, b) for a, b in coprime_pairs(20, 2)]
    for S in cases:
        for d in range(1, 9):
            expected = S.quotient(d).genus
            ok = ok and S.genus_quotient_trig(d) == expected
            for s in (s for s in range(1, 21) if S.contains(d * s)):
                ok = ok and S.genus_quotient_apery(d, s) == expected
    _report(10, "quotient genus: floor formula = multisection = brute force", ok)


def test_criterion_11_deterministic_reports(tmp_path, capsys):
    args = ["verify", "--pairs-max", "10", "--semigroups", "3", "--seed", "7"]
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = cli_main(args + ["--out", str(f1)])
    code2 = cli_main(args + ["--out", str(f2)])
    capsys.readouterr()
    ok = code1 == 0 and code2 == 0 and f1.read_bytes() == f2.read_bytes()
    _report(11, "verify runs with equal seeds are byte-identical", ok)


def test_criterion_12_default_suite_runtime():
    # the default run plus a prop2-only sweep to b = 40 (n = 1 at every b,
    # n >= 2 to PROP2_B_MAX = 12): at least the 8,012 checks this gate timed
    # when SuiteRanges() itself swept prop2 that far
    start = time.perf_counter()
    reports = run_suite(SuiteRanges(), seed=0)
    prop2 = run_suite(SuiteRanges(pairs_max=40, identities=("prop2",)), seed=0)
    elapsed = time.perf_counter() - start
    counts, prop2_counts = summarize(reports), summarize(prop2)
    ok = bool(reports) and counts.get("fail", 0) == 0 and prop2_counts.get("fail", 0) == 0 and elapsed < 60.0
    _report(12, "full default suite passes single-threaded", ok, elapsed)
