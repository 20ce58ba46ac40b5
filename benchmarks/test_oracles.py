"""Hand-checked cases for the benchmark's oracles.

Run with `python3 -m pytest benchmarks/test_oracles.py`; run.py also calls
every test here before it measures anything, so a broken oracle can never
pass judgement on sdlab.
"""

from oracles import (
    apery,
    check_verify_reports,
    expected_semigroup_reports,
    drawn_semigroups,
    fingerprint,
    frobenius,
    gaps,
    genus,
    mordell_alexander,
    mordell_gaps,
    quotient_genus,
)


def test_gaps_of_3_5():
    assert mordell_gaps(3, 5) == [1, 2, 4, 7]


def test_apery_of_3_5():
    assert apery((3, 5), 5) == [0, 6, 12, 3, 9]
    ap = apery((3, 5), 3)
    assert ap == [0, 10, 5]
    assert frobenius(ap) == 7
    assert genus(ap) == 4
    assert gaps(ap) == [1, 2, 4, 7]


def test_alexander_of_3_5():
    # 1 - q + q^3 - q^4 + q^5 - q^7 + q^8
    assert mordell_alexander(3, 5) == {0: 1, 1: -1, 3: 1, 4: -1, 5: 1, 7: -1, 8: 1}


def test_quotient_genus_of_3_5():
    # gaps 1, 2, 4, 7: S/2 has gaps {1, 2}, S/7 has {1}, S/3 has none
    ap = apery((3, 5), 3)
    assert [quotient_genus(ap, d) for d in (1, 2, 3, 4, 7)] == [4, 2, 0, 1, 1]


def test_gcd_is_refused():
    try:
        apery((4, 6), 4)
    except ValueError:
        return
    raise AssertionError("gcd 2 accepted")


def test_random_semigroup_reports_of_3_5():
    # members <= 4: 3; quotients S/d with a nonzero member d*s, s <= 20: every d
    got = expected_semigroup_reports((3, 5), member_max=4, d_max=2)
    assert sorted(got) == sorted(
        [("eq6", (("g1", 3), ("g2", 5), ("s", 3)))]
        + [(i, (("g1", 3), ("g2", 5), ("k", k), ("s", 3))) for i in ("prop1.eq2", "prop1.eq3") for k in range(3)]
        + [("prop7", (("d", d), ("g1", 3), ("g2", 5))) for d in (1, 2)]
    )


def test_fingerprint_of_3_5():
    fp = fingerprint(sorted(mordell_alexander(3, 5).items()))
    assert (fp["terms"], fp["at_1"], fp["low"], fp["high"], fp["palindromic"]) == (7, "1", 0, 8, True)
    assert fingerprint([(1, 1), (2, 1), (4, 1), (7, 1)])["palindromic"] is False
    assert fp["digest"] != fingerprint([(0, 1), (1, -1), (3, 1), (4, -1), (5, 1), (7, -1), (8, 2)])["digest"]


def test_drawn_semigroups_of_seed_4():
    # random.Random(4): 2 generators, 11 and 5
    assert drawn_semigroups(4, 1) == [(5, 11)]


def test_check_verify_reports():
    # seed 4 draws <5, 11>: member 5 <= member_max, and members below 20 for d = 1
    ranges = dict(seed=4, pairs_max=3, semigroups=1, member_max=5, d_max=1, prop2_pairs_max=3,
                  prop2_linear_pairs_max=3)
    pair_reports = [
        {"id": "eq1", "params": {"a": 2, "b": 3, "N": 6}, "verdict": "pass"},
        {"id": "eq6", "params": {"g1": 2, "g2": 3, "s": 2}, "verdict": "pass"},
        {"id": "eq6", "params": {"g1": 2, "g2": 3, "s": 3}, "verdict": "pass"},
    ]
    pair_reports += [{"id": i, "params": {"a": 2, "b": 3, "k": k}, "verdict": "pass"}
                     for i in ("prop1.eq4", "prop1.eq5", "gapvalues") for k in range(3)]
    pair_reports += [{"id": i, "params": {"a": 2, "b": 3}, "verdict": "pass"}
                     for i in ("prop3", "prop4.R11", "prop5", "prop6.eq7", "cor510", "sawtoothpoly")]
    pair_reports += [{"id": "prop4.T11", "params": {"a": 2, "b": 3}, "verdict": "expected-discrepancy"}]
    pair_reports += [{"id": "prop2", "params": {"a": 2, "b": 3, "m": m, "n": n}, "verdict": "pass"}
                     for m in range(1, 5) for n in range(1, 4)]
    semigroup_reports = [{"id": "eq6", "params": {"g1": 5, "g2": 11, "s": 5}, "verdict": "pass"}]
    semigroup_reports += [{"id": i, "params": {"g1": 5, "g2": 11, "s": 5, "k": k}, "verdict": "pass"}
                          for i in ("prop1.eq2", "prop1.eq3") for k in range(5)]
    semigroup_reports += [{"id": "prop7", "params": {"g1": 5, "g2": 11, "d": 1}, "verdict": "pass"}]
    good = pair_reports + semigroup_reports
    assert check_verify_reports(good, **ranges) == []
    assert check_verify_reports(good[1:], **ranges), "a missing pair report passed"
    assert check_verify_reports(pair_reports, **ranges), "a missing semigroup passed"
    assert check_verify_reports(good + good[-1:], **ranges), "a repeated report passed"
    flipped = [dict(r, verdict="expected-discrepancy") if r["id"] == "eq1" else r for r in good]
    assert check_verify_reports(flipped, **ranges)
