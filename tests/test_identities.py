import importlib
import io
import json
import pkgutil
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sdlab.dedekind import (
    apostol_bernoulli,
    carlitz_floor_sum,
    carlitz_poly,
    carlitz_sawtooth_poly,
    mirimanoff,
    rt_poly,
    voronoi_sum,
)
from sdlab.errors import EmptyPlan, GcdNotOne, NotAMember, TooLarge, UnknownIdentity
import sdlab.identities
import sdlab
from sdlab.identities import (
    CATALOG,
    IDENTITY_IDS,
    PROP2_B_MAX,
    PROP2_M_MAX,
    PROP2_N_MAX,
    QT_SAMPLE,
    IdentityReport,
    SuiteRanges,
    _cyclic_power,
    _gap_root_values,
    _prop2_kernels,
    _prop2_rhs,
    _r11_telescoped,
    _t11_display,
    _t11_sum,
    check_cor510,
    check_eq1,
    check_eq6,
    check_gap_values,
    check_prop1,
    check_prop1_ab,
    check_prop2,
    check_prop3,
    check_prop4,
    check_prop5,
    check_prop6,
    check_prop7,
    check_sawtooth_poly,
    random_semigroups,
    report_to_obj,
    reports_to_csv,
    reports_to_json,
    run_suite,
    summarize,
)
from sdlab.polyring import LaurentPoly, _Sparse, bi_monomial, monomial, roots_of_unity
from sdlab.semigroup import NumericalSemigroup, torus_semigroup

from oracles import coprime_pairs, prop2_composition_sums, prop3_dj_sum, prop5_kernel_sum, prop6_class_count_form


class TestEq1:
    def test_examples(self):
        assert check_eq1(2, 3).verdict == "pass"
        assert check_eq1(1, 5).verdict == "pass"
        assert check_eq1(3, 5).params == {"a": 3, "b": 5, "N": 15}

    def test_exact_mode_residual(self):
        r = check_eq1(4, 7)
        assert r.mode == "exact" and r.residual == 0.0

    def test_gcd_rejected(self):
        with pytest.raises(GcdNotOne):
            check_eq1(2, 4)

    # members of <3, 5> up to N = 15: the least, a generator, the Frobenius
    # number 7 plus one, and N itself
    @pytest.mark.parametrize("member", [0, 3, 8, 15])
    def test_not_vacuous(self, monkeypatch, member):
        original = NumericalSemigroup.hilbert_trunc

        def dropped(S, n):
            series = original(S, n)
            if S.generators != (3, 5):
                return series
            assert series.coeff(member) == 1
            return series - monomial(member)

        monkeypatch.setattr(NumericalSemigroup, "hilbert_trunc", dropped)
        reports = run_suite(SuiteRanges(pairs_max=5, semigroups=0, identities=("eq1",)), seed=0)
        assert [(r.params["a"], r.params["b"]) for r in reports if r.verdict == "fail"] == [(3, 5)]


class TestEq6:
    def test_pairs_and_general(self):
        assert check_eq6(torus_semigroup(3, 5), 5).verdict == "pass"
        assert check_eq6(NumericalSemigroup.from_generators([4, 7, 9]), 4).verdict == "pass"
        assert check_eq6(NumericalSemigroup.from_generators([1]), 1).verdict == "pass"

    def test_in_suite(self):
        reports = run_suite(SuiteRanges(pairs_max=6, semigroups=1, identities=("eq6",)), seed=0)
        assert reports and all(r.identity_id == "eq6" and r.verdict == "pass" for r in reports)


def passes(reports) -> bool:
    return bool(reports) and all(r.verdict == "pass" for r in reports)


class TestProp1:
    def test_examples(self):
        for S, s in ((torus_semigroup(3, 5), 5), (NumericalSemigroup.from_generators([1]), 1),
                     (NumericalSemigroup.from_generators([4, 7, 9]), 4)):
            assert passes(check_prop1(S, s))

    def test_example_floor_values(self):
        S = NumericalSemigroup.from_generators([4, 7, 9])
        assert S.apery(4)[1] == 9  # floor 2 matches gaps {1, 5} in class 1
        assert len([g for g in S.gaps if g % 4 == 1]) == 2

    def test_per_equation_ids(self):
        # one call gives both statements for every class
        reports = check_prop1(torus_semigroup(3, 5), 5)
        assert [(r.identity_id, r.params) for r in reports] == [
            (i, {"g1": 3, "g2": 5, "s": 5, "k": k}) for k in range(5) for i in ("prop1.eq2", "prop1.eq3")]

    def test_errors(self):
        with pytest.raises(NotAMember):
            check_prop1(torus_semigroup(3, 5), 4)

    @pytest.mark.parametrize("identities", [("prop1.eq2",), ("prop1.eq3",), ("prop1.eq2", "prop1.eq3")],
                             ids=["prop1.eq2", "prop1.eq3", "both"])
    def test_one_apery_set_per_modulus(self, monkeypatch, identities):
        calls = Counter()
        apery = NumericalSemigroup.apery

        def counted(S, s):
            calls[id(S), s] += 1
            return apery(S, s)

        monkeypatch.setattr(NumericalSemigroup, "apery", counted)
        reports = run_suite(SuiteRanges(semigroups=4, member_max=30, identities=identities), seed=0)
        moduli = sum(len([s for s in range(1, 31) if S.contains(s)]) for S in random_semigroups(4, random.Random(0)))
        assert len(calls) == moduli and set(calls.values()) == {1}
        assert len(reports) == len(identities) * sum(s for _, s in calls)


class TestProp1AB:
    def test_examples(self):
        for a, b in ((3, 5), (5, 7), (2, 3)):
            assert passes(check_prop1_ab(a, b))
        # one call gives both statements for every k
        assert [(r.identity_id, r.params["k"]) for r in check_prop1_ab(3, 5)] == [
            (i, k) for k in range(5) for i in ("prop1.eq4", "prop1.eq5")]

    def test_all_classes_small_sweep(self):
        for a, b in coprime_pairs(10, 2):
            assert passes(check_prop1_ab(a, b))

    def test_errors(self):
        with pytest.raises(GcdNotOne):
            check_prop1_ab(2, 4)


class TestProp2:
    def test_examples(self):
        assert check_prop2(3, 5, 1, 1).verdict == "pass"
        assert check_prop2(1, 9, 2, 2).verdict == "pass"  # V = 0, all floors vanish
        assert check_prop2(3, 5, 2, 2).verdict == "pass"

    def test_refusals(self):
        with pytest.raises(TooLarge):
            check_prop2(2, 5, 1, 4)
        with pytest.raises(ValueError):
            check_prop2(2, 5, 0, 1)
        with pytest.raises(GcdNotOne):
            check_prop2(3, 9, 1, 1)
        # no ceiling on b
        for args in ((3, 13, 1, 2), (2, 41, 1, 1), (7, 20, 4, 3), (5, 58, 4, 1)):
            assert check_prop2(*args).verdict == "pass", args

    def test_cyclic_power_matches_composition_sum(self):
        for a, b in coprime_pairs(8, 1):
            for m in range(1, 5):
                kernels = (
                    lambda lam: mirimanoff(lam, m, b),
                    lambda lam: complex(apostol_bernoulli(m + 1, b, lam) - apostol_bernoulli(m + 1, 0, lam)) / (m + 1),
                )
                for n in range(1, 4):
                    want = prop2_composition_sums(a, b, n, kernels)
                    for got, exp in zip(_prop2_rhs(a, b, m, n), want):
                        assert abs(got - exp) <= 1e-12 * abs(exp), (a, b, m, n)

    @staticmethod
    def kernels_per_call(b, m):
        """prop2's two kernels at every b-th root as computed with no cache:
        each Apostol-Bernoulli value from its own run."""
        roots = roots_of_unity(b)
        return (
            [mirimanoff(lam, m, b) for lam in roots],
            [complex(apostol_bernoulli(m + 1, b, lam) - apostol_bernoulli(m + 1, 0, lam)) / (m + 1) for lam in roots],
        )

    @staticmethod
    def rhs_per_call(a, b, n, kernels):
        """_prop2_rhs as it was computed with no cache past the root values: the
        power built afresh, the kernels those of kernels_per_call."""
        Cj = _gap_root_values(a, b)
        P = Cj
        for _ in range(n - 1):
            P = [sum(P[i] * Cj[(r - i) % b] for i in range(b)) for r in range(b)]
        mir, ab = kernels
        return (
            sum(P[r] * mir[(-a * r) % b] for r in range(b)) / b**n,
            sum(P[r] * ab[(-a * r) % b] for r in range(b)) / b**n,
        )

    def test_rhs_bit_identical_to_per_call_route(self):
        # every n to b = 40, n = 1 on to b = 58
        for b in range(2, 59):
            for m in range(1, 5):
                kernels = self.kernels_per_call(b, m)
                for a in (a for a in range(1, b) if gcd(a, b) == 1):
                    for n in range(1, 4 if b <= 40 else 2):
                        assert _prop2_rhs(a, b, m, n) == self.rhs_per_call(a, b, n, kernels), (a, b, m, n)
        # past the catalog's m the table is run deeper, not read past its end
        assert _prop2_rhs(3, 7, 6, 2) == self.rhs_per_call(3, 7, 2, self.kernels_per_call(7, 6))

    def test_recurrence_once_per_q_and_root(self, monkeypatch):
        # every Apostol-Bernoulli entry point identities uses, whichever it has
        runs = Counter()
        for name in ("apostol_bernoulli", "apostol_bernoulli_values"):
            fn = getattr(sdlab.identities, name, None)
            if fn is not None:
                def counted(k, q, lam, fn=fn):
                    runs[q, lam] += 1
                    return fn(k, q, lam)
                monkeypatch.setattr(sdlab.identities, name, counted)
        for obj in vars(sdlab.identities).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
        reports = run_suite(SuiteRanges(pairs_max=PROP2_B_MAX, semigroups=0, identities=("prop2",)))
        assert {r.params["m"] for r in reports} == {1, 2, 3, 4}
        bs = {r.params["b"] for r in reports}
        # q is b or 0; q = 0 is shared by every b whose roots include lam
        assert sum(runs.values()) <= 2 * sum(bs), sum(runs.values())
        assert max(runs.values()) <= len(bs)

    def test_large_b_linear_case(self):
        from sdlab.dedekind import voronoi_sum

        for a, b in ((3, 25), (7, 32), (11, 40)):
            r = check_prop2(a, b, 3, 1)
            assert r.verdict == "pass"
            assert r.residual <= 1e-8 * (1 + voronoi_sum(a, b, 3, 1))


class TestCaches:
    def test_every_lru_cache_is_bounded(self):
        found = {}
        for info in pkgutil.iter_modules(sdlab.__path__):
            mod = importlib.import_module(f"sdlab.{info.name}")
            for name, obj in vars(mod).items():
                if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__:
                    found[name] = obj.cache_parameters()["maxsize"]
        assert {"roots_of_unity", "_bernoulli_numbers", "torus_semigroup", "_gap_root_values",
                "_prop2_kernels"} <= set(found)
        assert all(size is not None for size in found.values()), found

    def test_one_kernel_table_per_b(self):
        # run_suite sweeps b in ascending order, so a table stays cached while
        # every a and m of its b reads it
        _prop2_kernels.cache_clear()
        reports = run_suite(SuiteRanges(pairs_max=44, semigroups=0, identities=("prop2",)), seed=0)
        bs = {r.params["b"] for r in reports}
        assert max(bs) == 44 and {r.params["m"] for r in reports} == set(range(1, PROP2_M_MAX + 1))
        assert _prop2_kernels.cache_info().misses == len(bs)

    def test_root_values_built_once_per_pair(self):
        # 16 cached pairs are long gone by b = 44, so every row that reads a
        # pair's root values must read them while it is current
        _gap_root_values.cache_clear()
        run_suite(SuiteRanges(pairs_max=44, semigroups=0, identities=("prop2", "gapvalues", "prop6")), seed=0)
        assert _gap_root_values.cache_info().misses == len(sdlab.identities.coprime_pairs(44))

    def test_each_pair_built_once_past_the_cli_limit(self):
        # eq1 and prop5 both build the pair's semigroup; a run that took the
        # catalog row by row rebuilt it for each row once the pairs outnumbered
        # the cache
        torus_semigroup.cache_clear()
        run_suite(SuiteRanges(pairs_max=60, semigroups=0, identities=("eq1", "prop5")), seed=0)
        assert torus_semigroup.cache_info().misses == len(sdlab.identities.coprime_pairs(60))


def drop_gap(S: NumericalSemigroup, g: int) -> NumericalSemigroup:
    """S with g missing from its gap list but not from its Apery set, so that
    a gap count and an Apery floor can disagree."""
    assert g in S.gaps
    broken = NumericalSemigroup(S.generators, S.ap)
    broken._gaps = tuple(x for x in S.gaps if x != g)
    return broken


class TestCountRoutesNotVacuous:
    """The routes the catalog runs must see a gap list that disagrees with the
    Apery set: counts taken from the Apery set would hide it."""

    def test_prop1_eq3(self):
        # one call checks every class: only k = 2, the class of 6, fails
        S = drop_gap(NumericalSemigroup.from_generators([4, 7, 9]), 6)
        reports = [r for r in check_prop1(S, 4) if r.identity_id == "prop1.eq3"]
        assert [r.params["k"] for r in reports if r.verdict == "fail"] == [2]

    def test_prop1_eq2(self):
        # the class-2 part of C_S is no longer the block of floor(a_2/4) terms
        S = drop_gap(NumericalSemigroup.from_generators([4, 7, 9]), 6)
        reports = [r for r in check_prop1(S, 4) if r.identity_id == "prop1.eq2"]
        assert [r.params["k"] for r in reports if r.verdict == "fail"] == [2]

    @pytest.fixture
    def patch_3_5(self, monkeypatch):
        # The pair's root values and their cyclic powers are cached, so they are
        # rebuilt from the patched semigroup and dropped afterwards.
        def patch(S):
            monkeypatch.setattr(sdlab.identities, "torus_semigroup", lambda a, b: S)
            _gap_root_values.cache_clear()
            _cyclic_power.cache_clear()
            return S

        yield patch
        _gap_root_values.cache_clear()
        _cyclic_power.cache_clear()

    @pytest.fixture
    def broken_3_5(self, patch_3_5):
        # 7 is in class 2 mod 5, which k = 4 reaches (3 * 4 = 12); prop6's sum
        # then moves by (b-1)/2 - k = -2, where a gap reached by k = 2 would hide.
        return patch_3_5(drop_gap(torus_semigroup(3, 5), 7))

    def test_prop1_eq5(self, broken_3_5):
        reports = [r for r in check_prop1_ab(3, 5) if r.identity_id == "prop1.eq5"]
        assert [r.params["k"] for r in reports if r.verdict == "fail"] == [4]

    def test_prop1_eq4(self, broken_3_5):
        reports = [r for r in check_prop1_ab(3, 5) if r.identity_id == "prop1.eq4"]
        assert [r.params["k"] for r in reports if r.verdict == "fail"] == [4]

    def test_prop3(self, broken_3_5):
        assert check_prop3(3, 5).verdict == "fail"

    def test_prop5_exact(self, broken_3_5):
        assert check_prop5(3, 5).verdict == "fail"

    def test_prop6(self, broken_3_5):
        r = check_prop6(3, 5)
        assert r.verdict == "fail" and r.residual == pytest.approx(2.0)

    def test_gapvalues(self, broken_3_5):
        # the genus is read off the Apery set, so only the root values see the gap
        reports = check_gap_values(3, 5)
        assert [(r.params["k"], r.verdict) for r in reports] == [(0, "pass")] + [(k, "fail") for k in range(1, 5)]

    def test_gapvalues_genus(self, patch_3_5):
        # 13 in place of 10 in class 1 of the Apery set adds the gap 10: the genus
        # read off it is 5, not (3 - 1)(5 - 1)/2
        S = patch_3_5(NumericalSemigroup((3, 5), (0, 13, 5)))
        assert S.gaps == (1, 2, 4, 7, 10) and S.genus == 5
        assert check_gap_values(3, 5)[0].verdict == "fail"

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_prop2(self, broken_3_5, m, n):
        assert check_prop2(3, 5, m, n).verdict == "fail"

    @pytest.mark.parametrize("s", [3, 5])
    def test_eq6(self, broken_3_5, s):
        assert check_eq6(broken_3_5, s).verdict == "fail"

    def test_genus_quotient_trig(self):
        S = drop_gap(NumericalSemigroup.from_generators([4, 7, 9]), 6)
        brute = sum(1 for x in range(1, S.conductor + 1) if not S.contains(2 * x))
        assert brute == 3
        assert S.genus_quotient_trig(2) != brute
        assert check_prop7(S, 2).verdict == "fail"


class TestProp3:
    def test_examples(self):
        assert check_prop3(3, 5).verdict == "pass"
        assert check_prop3(1, 7).verdict == "pass"
        assert check_prop3(2, 3).verdict == "pass"

    def test_modes_agree(self):
        # the exact route the checker takes and the literal d_j sum of the
        # display (tests/oracles.py); q near 1 keeps the q^{-pi(k)} factors
        # inside d_j from amplifying roundoff
        for a, b in coprime_pairs(20, 1):
            assert check_prop3(a, b).verdict == "pass"
            lhs = carlitz_poly(a, b).scale_q(b)
            for q0, t0 in ((0.9, 0.59), (0.86, 0.43)):
                want = lhs.evaluate(complex(q0), complex(t0))
                assert abs(prop3_dj_sum(a, b, q0, t0) - want) <= 1e-8 * (1 + abs(want)), (a, b)


class TestProp4:
    def test_r_identity(self):
        for a, b in ((3, 5), (2, 3), (1, 6), (4, 9), (9, 4), (12, 7)):
            r, _ = check_prop4(a, b)
            assert r.identity_id == "prop4.R11"
            assert r.verdict == "pass" and r.residual == 0.0

    def test_r_identity_when_both_sides_vanish(self):
        for b in range(2, 12):
            assert rt_poly("R", 1, 1, 1, b).is_zero()
            assert _r11_telescoped(1, b).is_zero()
            r, _ = check_prop4(1, b)
            assert r.verdict == "pass" and r.residual == 0.0

    def test_telescoped_sum_pins_rt_poly(self):
        # the O(b) route against the expansion it replaces, a = 1 included
        q_1, t_1 = bi_monomial(1, 0) - 1, bi_monomial(0, 1) - 1
        pairs = coprime_pairs(20, 2) + [(1, b) for b in range(2, 21)]
        assert (1, 2) in pairs and (19, 20) in pairs
        for a, b in pairs:
            r11 = rt_poly("R", 1, 1, a, b)
            assert r11 * q_1 * t_1 == _r11_telescoped(a, b), (a, b)
            assert len(r11) == a * (b - 1) // b * (b - 1), (a, b)
            value, count = _t11_display(a, b, *QT_SAMPLE)
            assert count == len(r11), (a, b)
            want = r11.scale_q(b).shift(a % b, 0).evaluate(*QT_SAMPLE)
            assert value == pytest.approx(want, rel=1e-12, abs=0), (a, b)

    @pytest.mark.parametrize("a, b", [(2, 3), (3, 5), (4, 9), (7, 12), (9, 4)])
    @pytest.mark.parametrize("where", ["coefficient", "last-row", "last-column", "corner", "below"])
    def test_r_not_vacuous(self, monkeypatch, a, b, where):
        true = _r11_telescoped(a, b)
        top_q = max(i for i, _ in true._terms)
        top_t = max(j for _, j in true._terms)
        # one coefficient off, or one stray term in the row or column just past
        # the support of R11 (q-1)(t-1), in the corner past both, or below q^0
        stray = {
            "coefficient": (top_q, 0, 1),
            "last-row": (top_q + 1, 0, 1),
            "last-column": (0, top_t + 1, -1),
            "corner": (top_q + 1, top_t + 1, 1),
            "below": (-1, 0, 1),
        }[where]
        broken = true + bi_monomial(*stray)
        monkeypatch.setattr(sdlab.identities, "_r11_telescoped", lambda a, b: broken)
        r, _ = check_prop4(a, b)
        assert r.verdict == "fail"

    def test_r_fails_when_both_sides_leave_the_box(self, monkeypatch):
        # a left-side term below the support box and a right-side term past it
        # must not compare equal
        true_r, true_c = _r11_telescoped(3, 5), sdlab.identities.carlitz_poly(3, 5)
        monkeypatch.setattr(sdlab.identities, "_r11_telescoped", lambda a, b: true_r + bi_monomial(-1, 0))
        monkeypatch.setattr(sdlab.identities, "carlitz_poly", lambda a, b: true_c + bi_monomial(50, 0))
        r, _ = check_prop4(3, 5)
        assert r.verdict == "fail"

    def test_t_discrepancy_documented(self):
        _, t = check_prop4(3, 5)
        assert t.identity_id == "prop4.T11"
        assert t.verdict == "expected-discrepancy"
        assert t.notes and "display" in t.notes
        assert t.residual > 0

    def test_t_degenerate_agreement(self):
        # with a = 1 both sides vanish, so every reading of the display matches
        _, t = check_prop4(1, 5)
        assert t.verdict == "pass"

    def test_t11_sum_matches_expansion(self):
        q0, t0 = QT_SAMPLE
        pairs = coprime_pairs(20, 2) + [(1, b) for b in range(2, 30)]
        assert (2, 3) in pairs
        for a, b in pairs:
            t11 = rt_poly("T", 1, 1, a, b)
            value, count = _t11_sum(a, b, q0, t0)
            assert count == len(t11), (a, b)
            assert value == pytest.approx(t11.evaluate(q0, t0), rel=1e-12, abs=0), (a, b)

    def test_t11_decided_by_term_counts(self):
        # the verdict the counts give is the one of R11 and T11 expanded and
        # compared reading by reading, j = 1..b-1; (2, 3) is the one default
        # pair whose counts agree, and there reading 2 differs from T11
        pairs = coprime_pairs(SuiteRanges().pairs_max, 1) + [(1, 1), (2, 1), (3, 2), (5, 2), (9, 2)]
        for a, b in pairs:
            display_base, t11 = rt_poly("R", 1, 1, a, b).scale_q(b), rt_poly("T", 1, 1, a, b)
            all_match = all(display_base.shift(j, 0) == t11 for j in range(1, b))
            _, t = check_prop4(a, b)
            assert t.verdict == ("pass" if all_match else "expected-discrepancy"), (a, b)

    def test_t11_count_decides_the_verdict(self, monkeypatch):
        # at (3, 2) the counts agree; one display term more turns the verdict
        assert check_prop4(3, 2)[1].verdict == "pass"
        monkeypatch.setattr(sdlab.identities, "_t11_display",
                            lambda *args: (_t11_display(*args)[0], _t11_display(*args)[1] + 1))
        assert check_prop4(3, 2)[1].verdict == "expected-discrepancy"

    @pytest.mark.parametrize(
        "a, b, verdict",
        [(3, 2, "pass"), (7, 2, "pass"), (1, 2, "pass"), (1, 7, "pass"), (1, 19, "pass"),
         (2, 3, "expected-discrepancy")],
    )
    def test_t11_rule_pinned(self, a, b, verdict):
        # b = 2: one reading, and the counts agree; a = 1: T11 = 0 and no term
        # on either side; (2, 3): the counts agree, but b >= 3 and T11 != 0
        q0, t0 = QT_SAMPLE
        t11_count, display_count = _t11_sum(a, b, q0, t0)[1], _t11_display(a, b, q0, t0)[1]
        assert t11_count == display_count
        assert (t11_count == 0) == (a == 1)
        assert check_prop4(a, b)[1].verdict == verdict


class TestProp5:
    def test_examples(self):
        assert check_prop5(3, 5).verdict == "pass"
        assert check_prop5(1, 8).verdict == "pass"
        assert check_prop5(2, 3).verdict == "pass"

    def test_modes_agree(self):
        # the exact route the checker takes and the literal geometric-kernel
        # sum of the display (tests/oracles.py): the coefficient of q^i on
        # the right is the gap count of class a*i mod b
        for a, b in coprime_pairs(20, 1):
            assert check_prop5(a, b).verdict == "pass"
            counts = torus_semigroup(a, b).class_counts(b)
            for q0 in (0.31, 0.57, 0.83):
                want = sum(counts[a * i % b] * q0**i for i in range(b))
                assert abs(prop5_kernel_sum(a, b, q0) - want) <= 1e-8 * (1 + want), (a, b)


class TestGapValues:
    def test_genus_at_one(self):
        for a, b in ((3, 5), (2, 3)):
            r = check_gap_values(a, b)[0]
            assert r.params["k"] == 0 and r.mode == "exact" and r.verdict == "pass"

    def test_roots(self):
        r = check_gap_values(3, 5)[1]
        assert r.params["k"] == 1 and r.verdict == "pass" and r.residual < 1e-9

    def test_one_report_per_root(self):
        reports = check_gap_values(3, 5)
        assert [r.params for r in reports] == [{"a": 3, "b": 5, "k": k} for k in range(5)]
        assert [r.mode for r in reports] == ["exact"] + ["float"] * 4
        assert passes(reports)

    def test_values_read_from_the_pair_root_values(self, monkeypatch):
        def literal(*args):
            raise AssertionError("gap polynomial evaluated term by term")

        monkeypatch.setattr(LaurentPoly, "eval_root_of_unity", literal)
        for a, b in coprime_pairs(SuiteRanges().pairs_max, 2):
            assert passes(check_gap_values(a, b)), (a, b)

    def test_regrouped_values_match_literal_evaluation(self):
        for a, b in coprime_pairs(40, 1):
            C = torus_semigroup(a, b).gap_poly()
            for k, value in enumerate(_gap_root_values(a, b)):
                literal = C.eval_root_of_unity(b, k)
                assert abs(value - literal) <= 1e-12 * (1 + abs(literal)), (a, b, k)


class TestProp6:
    def test_examples(self):
        assert check_prop6(3, 5).verdict == "pass"
        assert check_prop6(1, 9).verdict == "pass"
        assert check_prop6(2, 3).verdict == "pass"

    def test_exact_route(self):
        # the display's right side as exact class counts (tests/oracles.py)
        for a, b in coprime_pairs(20, 1):
            assert prop6_class_count_form(a, b) == voronoi_sum(a, b, 1, 1), (a, b)

    def test_modes_agree(self):
        # the float route the checker takes passes where the exact
        # class-count form (tests/oracles.py) holds
        for a, b in coprime_pairs(15, 2):
            assert prop6_class_count_form(a, b) == voronoi_sum(a, b, 1, 1)
            assert check_prop6(a, b).verdict == "pass"

    def test_trefoil_values(self):
        # V_{1,1}(2,3) = 2, correction (a-1)(b-1)^2/4 = 1, so the root sum is 1
        assert voronoi_sum(2, 3, 1, 1) == 2


class TestProp7:
    def test_examples(self):
        assert check_prop7(torus_semigroup(3, 5), 2).verdict == "pass"
        assert check_prop7(torus_semigroup(3, 5), 1).verdict == "pass"
        assert check_prop7(NumericalSemigroup.from_generators([4, 7, 9]), 3).verdict == "pass"

    def test_random_population(self):
        rng = random.Random(32)
        for S in random_semigroups(5, rng):
            for d in range(1, 9):
                if any(S.contains(d * s) for s in range(1, 21)):
                    assert check_prop7(S, d).verdict == "pass"


class TestExtraChecks:
    def test_cor510(self):
        for a, b in coprime_pairs(12, 2):
            assert check_cor510(a, b).verdict == "pass"

    def test_sawtooth_poly(self):
        for a, b in coprime_pairs(12, 2):
            assert check_sawtooth_poly(a, b).verdict == "pass"

    @pytest.mark.parametrize("a, b, k, step, verdict", [(5, 7, 1, 0, "pass"), (5, 7, 1, 1, "fail"), (5, 7, 4, -1, "fail"),
                                                        (7, 5, 3, 1, "fail"), (2, 9, 1, -1, "fail")])
    def test_cor510_not_vacuous(self, monkeypatch, a, b, k, step, verdict):
        # the right side rebuilt from its correction sum_k floor(bk/a) q^{k-1}
        # with the floor at k moved by step; step 0 rebuilds it unchanged
        def moved(a, b):
            lhs, _ = carlitz_floor_sum(a, b)
            floors = {j - 1: b * j // a for j in range(1, a)}
            floors[k - 1] += step
            return lhs, (b - 1) * monomial(a - 1) - (monomial(1) - 1) * LaurentPoly(floors)

        monkeypatch.setattr(sdlab.identities, "carlitz_floor_sum", moved)
        assert check_cor510(a, b).verdict == verdict

    @pytest.mark.parametrize("coeff", [Fraction(1, 5), Fraction(2, 15)], ids=["off-by-1/(2b)", "denominator-3b"])
    def test_sawtooth_poly_not_vacuous(self, monkeypatch, coeff):
        # the coefficient of q for (3, 5) is 1/10, which 2b = 10 scales to 1;
        # 2/15 scales to 4/3, which truncation would take for that 1
        true = carlitz_sawtooth_poly(3, 5)
        assert true.coeff(1) == Fraction(1, 10)
        broken = true + monomial(1, coeff - Fraction(1, 10))
        monkeypatch.setattr(sdlab.identities, "carlitz_sawtooth_poly", lambda a, b: broken)
        assert check_sawtooth_poly(3, 5).verdict == "fail"


class TestRawBuilders:
    """Four polynomials are built with _raw from a dict comprehension that drops
    zero coefficients, not with the validating constructor: the sawtooth
    polynomial, the floor-sum correction, prop4's floor_corr and sawtoothpoly's
    floor_poly.  Each must be what the constructor builds.  Both orders of every
    coprime pair up to 30 are covered; at even b one sawtooth coefficient is 0,
    and past a > b the floors floor(bk/a) start at 0."""

    PAIRS = [(a, b) for a in range(1, 31) for b in range(1, 31) if gcd(a, b) == 1]

    def test_sawtooth_poly(self):
        for a, b in self.PAIRS:
            p = carlitz_sawtooth_poly(a, b)
            assert p == LaurentPoly({k: Fraction(2 * (a * k % b) - b, 2 * b) for k in range(b)}), (a, b)
            assert all(p._terms.values()) and len(p) == b - (b % 2 == 0), (a, b)

    def test_floor_sum_correction(self):
        for a, b in self.PAIRS:
            _, rhs = carlitz_floor_sum(a, b)
            correction = LaurentPoly({k - 1: b * k // a for k in range(1, a)})
            assert rhs == (b - 1) * monomial(a - 1) - (monomial(1) - 1) * correction, (a, b)
            assert all(rhs._terms.values()), (a, b)

    def test_every_raw_dict_is_what_the_constructor_builds(self, monkeypatch):
        raw, seen = _Sparse._raw.__func__, set()

        def checked(cls, terms):
            assert cls(terms)._terms == terms, (cls.__name__, terms)
            seen.add(cls.__name__)
            return raw(cls, terms)

        monkeypatch.setattr(_Sparse, "_raw", classmethod(checked))
        for a, b in self.PAIRS:
            carlitz_sawtooth_poly(a, b)
            carlitz_floor_sum(a, b)
            assert check_prop4(a, b)[0].verdict == "pass", (a, b)
            assert check_sawtooth_poly(a, b).verdict == "pass", (a, b)
        assert seen == {"LaurentPoly", "BiLaurent"}


class TestSuite:
    def small_ranges(self):
        return SuiteRanges(pairs_max=7, semigroups=2, member_max=8, d_max=4)

    @pytest.mark.parametrize("ranges", [SuiteRanges(), SuiteRanges(pairs_max=9, identities=("prop1", "eq6", "prop4.T"))],
                             ids=["default", "filtered"])
    def test_order_is_one_sort_of_all_reports(self, ranges):
        reports = run_suite(ranges, seed=0)
        assert reports == sorted(reports, key=lambda r: (r.identity_id, sorted(r.params.items())))

    def test_order_across_generator_counts(self, monkeypatch):
        # <4, 5>, <4, 5, 6> and <4, 5, 6, 7> share g1 and g2, so their reports
        # are ordered where the key g3 of one meets the key s of another
        population = [NumericalSemigroup.from_generators(g) for g in ([4, 5, 6], [4, 5], [4, 5, 6, 7])]
        monkeypatch.setattr(sdlab.identities, "random_semigroups", lambda count, rng: population)
        reports = run_suite(SuiteRanges(pairs_max=3, member_max=9, d_max=3), seed=0)
        eq6 = [r.params for r in reports if r.identity_id == "eq6" and "g1" in r.params]
        assert {len([k for k in p if k.startswith("g")]) for p in eq6} == {2, 3, 4}
        assert reports == sorted(reports, key=lambda r: (r.identity_id, sorted(r.params.items())))

    def test_each_report_owns_its_params(self):
        # reports are built without copying their params, so no two may share a dict,
        # not even the two statements one call checks from one set of params
        reports = run_suite(SuiteRanges(), seed=0)
        assert len({id(r.params) for r in reports}) == len(reports)
        for eq2, eq3 in (check_prop1(NumericalSemigroup.from_generators([4, 7, 9]), 4)[:2],
                         check_prop1_ab(3, 5)[:2], check_prop4(3, 5)):
            assert eq2.identity_id != eq3.identity_id and eq2.params == eq3.params
            assert eq2.params is not eq3.params

    def test_deterministic(self):
        r1 = run_suite(self.small_ranges(), seed=0)
        r2 = run_suite(self.small_ranges(), seed=0)
        assert reports_to_json(r1) == reports_to_json(r2)

    def test_canonical_order(self):
        reports = run_suite(self.small_ranges(), seed=0)
        keys = [(r.identity_id, sorted(r.params.items())) for r in reports]
        assert keys == sorted(keys)

    def test_bytes_do_not_depend_on_job_order(self, monkeypatch):
        forward = reports_to_json(run_suite(self.small_ranges(), seed=0))
        assert '"prop4.T11"' in forward
        monkeypatch.setattr(sdlab.identities, "CATALOG", sdlab.identities.CATALOG[::-1])
        assert reports_to_json(run_suite(self.small_ranges(), seed=0)) == forward
        monkeypatch.undo()
        monkeypatch.setattr(sdlab.identities, "coprime_pairs", lambda bmax: coprime_pairs(bmax, 2)[::-1])
        assert reports_to_json(run_suite(self.small_ranges(), seed=0)) == forward

    def test_empty_ranges(self):
        assert run_suite(SuiteRanges(pairs_max=0), seed=0) == []

    @pytest.mark.parametrize("ranges", [SuiteRanges(d_max=0, identities=("prop7",)),
                                        SuiteRanges(member_max=1, identities=("prop1.eq2",)),
                                        SuiteRanges(pairs_max=2, identities=("eq1",)),
                                        SuiteRanges(pairs_max=2, semigroups=0)])
    def test_empty_plan_refused(self, ranges):
        with pytest.raises(EmptyPlan):
            run_suite(ranges, seed=0)

    def test_all_pass_except_t11(self):
        reports = run_suite(self.small_ranges(), seed=0)
        counts = summarize(reports)
        assert counts.get("fail", 0) == 0
        assert counts.get("expected-discrepancy", 0) > 0
        for r in reports:
            if r.verdict == "expected-discrepancy":
                assert r.identity_id == "prop4.T11"

    def test_identity_filter(self):
        reports = run_suite(SuiteRanges(pairs_max=8, semigroups=0, identities=("prop6",)), seed=0)
        assert reports and all(r.identity_id == "prop6.eq7" for r in reports)

    def test_catalog_ids_are_the_reported_ids(self):
        # seed 0 draws <15, 26, 30> first, so member_max 15 reaches prop1.eq2/eq3
        reports = run_suite(SuiteRanges(pairs_max=5, semigroups=1, member_max=15, d_max=2), seed=0)
        assert sorted({r.identity_id for r in reports}) == sorted(IDENTITY_IDS)

    def test_unknown_identity_refused(self):
        for bad in ("nonsense", "prop1.eq2-3", "prop4.R11x"):
            with pytest.raises(UnknownIdentity):
                run_suite(SuiteRanges(pairs_max=8, semigroups=0, identities=("prop6", bad)), seed=0)
        with pytest.raises(UnknownIdentity):
            run_suite(SuiteRanges(pairs_max=0, identities=("nonsense",)), seed=0)

    def test_seed_changes_population(self):
        ranges = SuiteRanges(pairs_max=0)
        rng_a = random.Random(0)
        rng_b = random.Random(1)
        gens_a = [S.generators for S in random_semigroups(5, rng_a)]
        gens_b = [S.generators for S in random_semigroups(5, rng_b)]
        assert gens_a != gens_b
        assert run_suite(ranges, seed=1) == []

    def test_exact_pass_residual_zero(self):
        for r in run_suite(self.small_ranges(), seed=0):
            if r.mode == "exact" and r.verdict == "pass":
                assert r.residual == 0.0


class TestTimings:
    def test_shared_work_is_timed(self, monkeypatch):
        # a pair's root values are built inside check_gap_values but after its
        # k = 0 report; run_suite charges the whole call to the pair's reports
        original = sdlab.identities._gap_root_values

        def slow(a, b):
            time.sleep(0.021)
            return original(a, b)

        monkeypatch.setattr(sdlab.identities, "_gap_root_values", slow)
        reports = run_suite(SuiteRanges(pairs_max=5, semigroups=0, identities=("gapvalues",)), seed=0)
        per_pair = Counter()
        for r in reports:
            per_pair[r.params["a"], r.params["b"]] += r.elapsed_ms
        assert sorted(per_pair) == sorted(coprime_pairs(5, 2))
        assert min(per_pair.values()) >= 20

    def test_checker_alone_reports_no_time(self):
        assert check_prop2(3, 5, 1, 1).elapsed_ms == 0.0


class TestCatalog:
    def test_readme_table_mirrors_catalog(self):
        lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("| id "))
        ids = []
        for line in lines[start + 2:]:  # past the header and its rule
            if not line.startswith("|"):
                break
            ids.append(line.split("|")[1].strip().strip("`"))
        assert ids == list(IDENTITY_IDS)

    def test_checkers_looked_up_when_jobs_are_made(self, monkeypatch):
        # a wrapper installed after import (as a tracer does) must see every call
        calls = []
        original = sdlab.identities.check_prop6

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(sdlab.identities, "check_prop6", counting)
        reports = run_suite(SuiteRanges(pairs_max=6, semigroups=0, identities=("prop6",)), seed=0)
        assert len(calls) == len(reports) == len(coprime_pairs(6, 2))

    def test_prop2_row_stays_under_ceilings(self, monkeypatch):
        (row,) = [row for row in CATALOG if row.ids == ("prop2",)]
        calls = []
        monkeypatch.setattr(sdlab.identities, "check_prop2", lambda *args: calls.append(args))
        for a, b in coprime_pairs(100, 2):
            list(row.pair(a, b))
        # n = 1 reaches every b, n >= 2 stops at PROP2_B_MAX
        assert {b for _, b, _, n in calls if n == 1} == set(range(3, 101))
        assert max(b for _, b, _, n in calls if n > 1) == PROP2_B_MAX
        assert max(n for *_, n in calls) == PROP2_N_MAX


class TestSerialization:
    def reports(self):
        return run_suite(SuiteRanges(pairs_max=5, semigroups=1, member_max=6), seed=0)

    def test_json_schema(self):
        objs = json.loads(reports_to_json(self.reports()))
        for obj in objs:
            assert set(obj) >= {"id", "params", "mode", "residual", "verdict", "elapsed_ms"}
            assert obj["elapsed_ms"] == 0.0  # deterministic by default

    def test_json_csv_parity(self):
        reports = self.reports()
        objs = json.loads(reports_to_json(reports))
        lines = reports_to_csv(reports).strip().split("\n")
        header = lines[0].split(",")[:6]
        assert header == ["id", "params", "mode", "residual", "verdict", "elapsed_ms"]
        assert len(lines) - 1 == len(objs)
        for line, obj in zip(lines[1:], objs):
            fields = line.split(",", 5)
            assert fields[0] == obj["id"]
            params = dict(kv.split("=") for kv in fields[1].split(";")) if fields[1] else {}
            assert {k: int(v) for k, v in params.items()} == obj["params"]
            assert fields[2] == obj["mode"]
            assert float(fields[3]) == obj["residual"]
            assert fields[4] == obj["verdict"]

    def test_timings_optional(self):
        reports = self.reports()
        with_timings = json.loads(reports_to_json(reports, include_timings=True))
        assert any(obj["elapsed_ms"] > 0 for obj in with_timings)

    @pytest.mark.parametrize("to_text", [reports_to_json, reports_to_csv])
    @pytest.mark.parametrize("include_timings", [False, True])
    def test_file_gets_the_text(self, to_text, include_timings):
        for reports in (self.reports(), []):
            fh = io.StringIO()
            assert to_text(reports, include_timings, file=fh) is None
            assert fh.getvalue() == to_text(reports, include_timings)


_NOTES = st.one_of(st.none(), st.text(), st.sampled_from(['say "hi"', "back\\slash", "two\nlines", "caf\u00e9", "astral \U0001f600"]))
_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 1e300]))
_REPORTS = st.builds(
    IdentityReport,
    identity_id=st.text(),
    params=st.dictionaries(st.text(min_size=1, max_size=4), st.integers(), max_size=4),
    mode=st.sampled_from(["exact", "float"]),
    residual=_FLOATS,
    verdict=st.sampled_from(["pass", "fail", "expected-discrepancy"]),
    elapsed_ms=_FLOATS,
    notes=_NOTES,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_REPORTS, max_size=4), st.booleans())
@example([], False)
# shapes with no, one and two params, the one-param shape met again after the others
@example([IdentityReport("i", {"k": 1}, "exact", 0.0, "pass"), IdentityReport("j", {"b": 2, "a": 1}, "exact", 0.0, "pass"),
          IdentityReport("j", {}, "exact", 0.0, "pass"), IdentityReport("i", {"k": 2}, "exact", 0.0, "pass")], False)
def test_json_writer_matches_json_dumps(reports, include_timings):
    objs = [report_to_obj(r, include_timings) for r in reports]
    assert reports_to_json(reports, include_timings) == json.dumps(objs, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.lists(_REPORTS, max_size=4), st.booleans())
@example([], False)
@example([IdentityReport("i", {"b": 5, "a": 3}, "float", -0.0, "fail", 5e-324, 'a, "b"\nc')], True)
def test_csv_writer_matches_report_obj_lines(reports, include_timings):
    lines = ["id,params,mode,residual,verdict,elapsed_ms,notes\n"]
    for obj in (report_to_obj(r, include_timings) for r in reports):
        params = ";".join(f"{k}={v}" for k, v in obj["params"].items())
        notes = obj.get("notes", "")
        if "," in notes or '"' in notes:
            notes = '"' + notes.replace('"', '""') + '"'
        lines.append(f"{obj['id']},{params},{obj['mode']},{obj['residual']:.12g},{obj['verdict']},"
                     f"{obj['elapsed_ms']:.12g},{notes}\n")
    assert reports_to_csv(reports, include_timings) == "".join(lines)


class TestRandomSemigroups:
    def test_spec_population(self):
        rng = random.Random(0)
        for S in random_semigroups(20, rng):
            assert 2 <= len(S.generators) <= 4
            assert all(2 <= g <= 30 for g in S.generators)
            g = 0
            for x in S.generators:
                g = gcd(g, x)
            assert g == 1

    def test_deterministic_from_seed(self):
        a = [S.generators for S in random_semigroups(6, random.Random(42))]
        b = [S.generators for S in random_semigroups(6, random.Random(42))]
        assert a == b
