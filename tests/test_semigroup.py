import random
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdlab.semigroup
from sdlab.errors import EmptyGenerators, GcdNotOne, NotAMember, TooLarge
from sdlab.polyring import LaurentPoly, ONE, monomial
from sdlab.semigroup import (
    SIZE_MAX,
    AperySet,
    NumericalSemigroup,
    alexander_closed_form,
    torus_gaps_mordell,
    torus_semigroup,
)

from reference_oracles import (
    apery_by_definition,
    closure_gaps,
    closure_members,
    long_division,
    pair_gaps,
    quotient_by_definition,
)


def random_generators(rng):
    while True:
        gens = [rng.randint(2, 30) for _ in range(rng.randint(2, 4))]
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g == 1:
            return gens


class TestConstruction:
    def test_two_three(self):
        S = NumericalSemigroup.from_generators([2, 3])
        assert S.gaps == (1,)
        assert S.frobenius == 1
        assert S.genus == 1

    def test_full_semigroup(self):
        S = NumericalSemigroup.from_generators([1])
        assert S.gaps == ()
        assert S.frobenius == -1
        assert S.genus == 0

    def test_three_generators(self):
        S = NumericalSemigroup.from_generators([4, 7, 9])
        assert S.gaps == (1, 2, 3, 5, 6, 10)
        assert S.frobenius == 10
        assert S.genus == 6

    def test_gcd_not_one_rejected(self):
        with pytest.raises(GcdNotOne):
            NumericalSemigroup.from_generators([4, 6])

    def test_empty_rejected(self):
        with pytest.raises(EmptyGenerators):
            NumericalSemigroup.from_generators([])

    def test_membership_against_closure_oracle(self):
        rng = random.Random(11)
        for _ in range(15):
            gens = random_generators(rng)
            S = NumericalSemigroup.from_generators(gens)
            bound = min(gens) * max(gens) + max(gens)
            members = closure_members(gens, bound)
            for x in range(bound + 1):
                assert S.contains(x) == (x in members)
            assert list(S.gaps) == closure_gaps(gens)

    def test_membership_beyond_table(self):
        S = NumericalSemigroup.from_generators([3, 5])
        # anything past the Frobenius number is a member
        assert all(S.contains(x) for x in range(S.frobenius + 1, S.frobenius + 200))
        assert not S.contains(-1)

    def test_closed_under_addition(self):
        S = NumericalSemigroup.from_generators([4, 7, 9])
        members = S.members(40)
        for x in members:
            for y in members:
                if x + y <= 40:
                    assert S.contains(x + y)

    def test_to_dict_schema(self):
        S = NumericalSemigroup.from_generators([3, 5])
        assert S.to_dict() == {
            "generators": [3, 5],
            "frobenius": 7,
            "genus": 4,
            "gaps": [1, 2, 4, 7],
        }


class TestApery:
    def test_examples(self):
        assert list(torus_semigroup(3, 5).apery(5)) == [0, 6, 12, 3, 9]
        assert list(NumericalSemigroup.from_generators([2, 3]).apery(2)) == [0, 3]
        assert list(NumericalSemigroup.from_generators([4, 7, 9]).apery(4)) == [0, 9, 14, 7]

    def test_apery_as_set_for_pairs(self):
        # Ap_b(<a,b>) = {0, a, 2a, ..., (b-1)a}
        for a, b in ((3, 5), (2, 7), (4, 9)):
            ap = torus_semigroup(a, b).apery(b)
            assert sorted(ap) == [a * k for k in range(b)]

    def test_invariants(self):
        rng = random.Random(12)
        for _ in range(10):
            S = NumericalSemigroup.from_generators(random_generators(rng))
            for s in [s for s in range(1, 26) if S.contains(s)]:
                ap = S.apery(s)
                assert ap[0] == 0
                for k in range(s):
                    assert ap[k] % s == k
                    assert S.contains(ap[k])
                    assert not S.contains(ap[k] - s)
                assert max(ap) - s == S.frobenius

    def test_non_member_rejected(self):
        S = NumericalSemigroup.from_generators([3, 5])
        with pytest.raises(NotAMember):
            S.apery(4)
        with pytest.raises(NotAMember):
            S.apery(0)

    def test_public_constructor_checks_the_classes(self):
        # apery builds its result unchecked; a caller's AperySet is checked
        assert AperySet(5, (0, 6, 12, 3, 9)) == torus_semigroup(3, 5).apery(5)
        with pytest.raises(ValueError, match="one element per residue class"):
            AperySet(5, (0, 6, 12, 3))
        with pytest.raises(ValueError, match="element 13 not in residue class 2"):
            AperySet(5, (0, 6, 13, 3, 9))


class TestGapPolynomials:
    def test_gap_poly_examples(self):
        assert torus_semigroup(3, 5).gap_poly() == LaurentPoly({1: 1, 2: 1, 4: 1, 7: 1})
        assert NumericalSemigroup.from_generators([1]).gap_poly().is_zero()
        assert torus_semigroup(2, 5).gap_poly() == LaurentPoly({1: 1, 3: 1})

    def test_semigroup_poly_examples(self):
        assert NumericalSemigroup.from_generators([2, 3]).semigroup_poly() == LaurentPoly({0: 1, 1: -1, 2: 1})
        assert NumericalSemigroup.from_generators([1]).semigroup_poly() == ONE
        assert torus_semigroup(2, 5).semigroup_poly() == LaurentPoly({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})

    def test_hilbert_trunc_examples(self):
        assert NumericalSemigroup.from_generators([2, 3]).hilbert_trunc(5) == LaurentPoly(
            {0: 1, 2: 1, 3: 1, 4: 1, 5: 1}
        )
        assert NumericalSemigroup.from_generators([1]).hilbert_trunc(3) == LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})
        assert torus_semigroup(3, 5).hilbert_trunc(8) == LaurentPoly({0: 1, 3: 1, 5: 1, 6: 1, 8: 1})

    def test_gap_poly_from_apery(self):
        assert torus_semigroup(3, 5).gap_poly_from_apery(5) == torus_semigroup(3, 5).gap_poly()
        assert NumericalSemigroup.from_generators([1]).gap_poly_from_apery(1).is_zero()
        S = NumericalSemigroup.from_generators([4, 7, 9])
        assert S.gap_poly_from_apery(4) == LaurentPoly({1: 1, 2: 1, 3: 1, 5: 1, 6: 1, 10: 1})

    def test_gap_poly_from_apery_any_member(self):
        rng = random.Random(13)
        for _ in range(8):
            S = NumericalSemigroup.from_generators(random_generators(rng))
            for s in [s for s in range(1, 26) if S.contains(s)]:
                assert S.gap_poly_from_apery(s) == S.gap_poly()


class TestClosedForms:
    def test_mordell_examples(self):
        assert torus_gaps_mordell(3, 5) == [1, 2, 4, 7]
        assert torus_gaps_mordell(2, 3) == [1]
        assert torus_gaps_mordell(1, 6) == []

    def test_mordell_against_enumeration(self):
        for b in range(3, 13):
            for a in range(2, b):
                if gcd(a, b) == 1:
                    assert torus_gaps_mordell(a, b) == pair_gaps(a, b)

    def test_mordell_gcd_rejected(self):
        with pytest.raises(GcdNotOne):
            torus_gaps_mordell(4, 6)

    def test_alexander_examples(self):
        assert alexander_closed_form(2, 3) == LaurentPoly({0: 1, 1: -1, 2: 1})
        assert alexander_closed_form(2, 5) == LaurentPoly({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})
        assert alexander_closed_form(1, 9) == ONE

    def test_alexander_matches_semigroup_poly(self):
        for a, b in ((2, 3), (3, 5), (4, 7), (5, 9), (3, 11)):
            assert alexander_closed_form(a, b) == torus_semigroup(a, b).semigroup_poly()

    def test_alexander_from_hilbert(self):
        for a, b in ((2, 3), (3, 5), (4, 7)):
            S = torus_semigroup(a, b)
            n = a * b
            assert (ONE - monomial(1)) * S.hilbert_trunc(n) + monomial(n + 1) == alexander_closed_form(a, b)

    def test_alexander_either_order_against_gaps(self):
        # one range per residue class mod min(a, b), whichever order the pair comes in
        for a, b in ((2, 1001), (1001, 2), (101, 103), (103, 101), (1001, 1003)):
            delta = alexander_closed_form(a, b)
            assert delta == alexander_closed_form(b, a)
            assert delta == ONE - (ONE - monomial(1)) * torus_semigroup(a, b).gap_poly()
            assert all(type(c) is int for _, c in delta.items())
            assert delta.degree() == (a - 1) * (b - 1)

    def test_alexander_against_long_division_and_gaps(self):
        # two routes that do not build the quotient class by class: plain long
        # division of (1 - q) sum_{i<m} q^{n*i} by 1 - q^m, and the gap polynomial
        pairs = [(a, b) for a in range(1, 41) for b in range(1, 41) if gcd(a, b) == 1]
        assert (1, 1) in pairs and (1, 40) in pairs and (40, 1) in pairs
        for a, b in pairs:
            m, n = sorted((a, b))
            num = {**{n * i: 1 for i in range(m)}, **{n * i + 1: -1 for i in range(m)}}
            delta = alexander_closed_form(a, b)
            assert delta == LaurentPoly(long_division(num, {0: 1, m: -1})), (a, b)
            assert delta == ONE - (ONE - monomial(1)) * torus_semigroup(a, b).gap_poly(), (a, b)
            assert all(type(c) is int for _, c in delta.items()), (a, b)
            assert delta.degree() == (a - 1) * (b - 1), (a, b)

    def test_genus_closed_form(self):
        for a, b in ((2, 3), (3, 5), (5, 8), (7, 10)):
            assert torus_semigroup(a, b).genus == (a - 1) * (b - 1) // 2


class TestRestrictedDoubleSum:
    def test_identity_as_rational_functions(self):
        # sum over 0 <= i < b, 0 <= j < a with ia + jb < ab of q^{ia+jb}
        # equals (1 - q^{ab})/((1-q^a)(1-q^b)) - q^{ab}/(1-q)
        for b in range(2, 21):
            for a in range(1, b):
                if gcd(a, b) != 1:
                    continue
                ab = a * b
                lhs = LaurentPoly(
                    (i * a + j * b, 1)
                    for i in range(b)
                    for j in range(a)
                    if i * a + j * b < ab
                )
                num = (ONE - monomial(ab)) * (ONE - monomial(1)) - monomial(ab) * (
                    ONE - monomial(a)
                ) * (ONE - monomial(b))
                den = (ONE - monomial(a)) * (ONE - monomial(b)) * (ONE - monomial(1))
                assert lhs * den == num


class TestClassCounts:
    def test_against_gap_list(self):
        rng = random.Random(16)
        for _ in range(8):
            S = NumericalSemigroup.from_generators(random_generators(rng))
            for n in range(1, 14):
                assert S.class_counts(n) == tuple(sum(1 for g in S.gaps if g % n == r) for r in range(n))

    def test_memoized_and_checked(self):
        S = torus_semigroup(3, 5)
        assert S.class_counts(5) == (0, 1, 2, 0, 1)
        assert S.class_counts(5) is S.class_counts(5)
        with pytest.raises(ValueError):
            S.class_counts(0)


class TestSizeLimit:
    def test_huge_inputs_refused_before_work(self, deadline):
        S = torus_semigroup(3, 5)
        with pytest.raises(TooLarge):
            S.hilbert_trunc(10**12)
        with pytest.raises(TooLarge):
            S.apery(10**12)
        with pytest.raises(TooLarge):
            S.genus_quotient_trig(10**12)

    def test_refused_just_above_the_limit(self):
        S = torus_semigroup(3, 5)
        with pytest.raises(TooLarge):
            S.hilbert_trunc(SIZE_MAX + 1)
        with pytest.raises(TooLarge):
            S.apery(SIZE_MAX + 1)
        with pytest.raises(TooLarge):
            S.class_counts(SIZE_MAX + 1)
        with pytest.raises(TooLarge):
            S.members(SIZE_MAX + 1)

    @pytest.mark.parametrize("gens", [[SIZE_MAX + 1, SIZE_MAX + 2], [10**12, 10**12 + 1, 10**12 + 3]])
    def test_least_generator_refused(self, deadline, gens):
        with pytest.raises(TooLarge):
            NumericalSemigroup.from_generators(gens)
        with pytest.raises(TooLarge):
            torus_semigroup(*gens[:2])

    @pytest.mark.parametrize("build", [lambda: torus_semigroup(100000, 100001),
                                       lambda: NumericalSemigroup.from_generators([100000, 100001])],
                             ids=["closed-form", "generators"])
    def test_genus_past_the_limit(self, deadline, build):
        # the invariants read off the Apery set still answer; nothing that
        # lists or walks the gaps starts
        S = build()
        assert S.genus == 99999 * 100000 // 2 > SIZE_MAX
        assert S.frobenius == 100000 * 100001 - 100000 - 100001
        assert S.contains(S.frobenius + 1) and not S.contains(S.frobenius)
        assert max(S.apery(100000)) - 100000 == S.frobenius
        assert max(S.apery(100001)) - 100001 == S.frobenius  # re-rooted from ap, past no gap
        for listing in (lambda: S.gaps, S.gap_poly, S.to_dict, lambda: S.quotient(2),
                        lambda: S.class_counts(7), lambda: S.gap_poly_from_apery(100000),
                        lambda: S.members(10**12)):
            with pytest.raises(TooLarge):
                listing()

    def test_alexander_past_the_limit(self, deadline):
        # the degree is twice the genus, 4999950000 here; refused before any term is written
        with pytest.raises(TooLarge, match="genus"):
            alexander_closed_form(100000, 100001)
        with pytest.raises(TooLarge, match="genus"):
            alexander_closed_form(10**12, 10**12 + 1)
        # genus SIZE_MAX + 1, just past the limit
        with pytest.raises(TooLarge, match="genus"):
            alexander_closed_form(2, 2 * SIZE_MAX + 3)


class TestQuotient:
    def test_examples(self):
        S = torus_semigroup(3, 5)
        assert S.quotient(2).gaps == (1, 2)
        assert S.quotient(2).genus == 2
        assert S.quotient(1) is S
        assert NumericalSemigroup.from_generators([2, 3]).quotient(3).genus == 0

    def test_quotient_membership_definition(self):
        rng = random.Random(14)
        for _ in range(8):
            S = NumericalSemigroup.from_generators(random_generators(rng))
            for d in range(1, 9):
                Q = S.quotient(d)
                for s in range(0, 60):
                    assert Q.contains(s) == S.contains(d * s)

    def test_genus_routes_agree(self):
        rng = random.Random(15)
        for _ in range(8):
            S = NumericalSemigroup.from_generators(random_generators(rng))
            for d in range(1, 9):
                Q = S.quotient(d)
                assert S.genus_quotient_trig(d) == Q.genus
                for s in [s for s in range(1, 21) if S.contains(d * s)]:
                    assert S.genus_quotient_apery(d, s) == Q.genus

    def test_trig_examples(self):
        S = torus_semigroup(3, 5)
        assert S.genus_quotient_trig(2) == 2
        assert S.genus_quotient_trig(1) == S.genus
        assert S.genus_quotient_trig(7) == 1
        with pytest.raises(ValueError):
            S.genus_quotient_trig(0)

    def test_apery_examples(self):
        S = torus_semigroup(3, 5)
        assert list(S.apery(6)) == [0, 13, 8, 3, 10, 5]
        assert S.genus_quotient_apery(2, 3) == 2
        S23 = NumericalSemigroup.from_generators([2, 3])
        assert S23.genus_quotient_apery(2, 2) == 0
        assert S.genus_quotient_apery(1, 3) == S.genus

    def test_apery_rejects_non_member(self):
        S = torus_semigroup(3, 5)
        with pytest.raises(NotAMember):
            S.genus_quotient_apery(2, 1)  # 2*1 = 2 is not in <3,5>

    def test_no_membership_test_per_integer(self, monkeypatch):
        # quotients, listings and the quotient genus floor sums are read off the
        # Apery set, class by class
        def refuse(self, x):
            raise AssertionError(f"membership test for {x}")

        monkeypatch.setattr(NumericalSemigroup, "contains", refuse)
        monkeypatch.setattr(NumericalSemigroup, "__contains__", refuse)
        S = NumericalSemigroup.from_generators([12, 20, 33])
        assert S.gaps[:4] == (1, 2, 3, 4)
        assert S.gap_poly() == LaurentPoly(dict.fromkeys(S.gaps, 1))
        assert S.members(40) == [0, 12, 20, 24, 32, 33, 36, 40]
        for d in range(2, 13):
            Q = S.quotient(d)
            assert Q.gaps == tuple(g // d for g in S.gaps if g % d == 0)
            assert Q.members(30) == [x // d for x in S.members(30 * d) if x % d == 0]
            for s in (Q.multiplicity, 12):  # d * 12 is in S, so 12 is in S/d
                assert S.genus_quotient_apery(d, s) == Q.genus

    def test_generators_listed_only_when_read(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("generators listed")

        S = NumericalSemigroup.from_generators([12, 20, 33])
        with monkeypatch.context() as patch:
            patch.setattr(sdlab.semigroup, "_members", refuse)
            quotients = {d: S.quotient(d) for d in range(2, 13)}
            for Q in quotients.values():
                assert Q.ap[0] == 0 and Q.genus == len(Q.gaps) and Q.frobenius == max(Q.gaps, default=-1)
        for d, Q in quotients.items():
            assert Q.generators == quotient_by_definition(S, d).generators

    def test_rerooted_only_when_the_multiplicity_moves(self, monkeypatch):
        # S/d is built on n = m/gcd(d, m), which is in S/d: when n is its
        # multiplicity, and for apery(m), the Apery set is kept as it is
        def refuse(ap, s):
            raise AssertionError(f"re-rooted at {s}")

        S = NumericalSemigroup.from_generators([12, 20, 33])
        want = {d: quotient_by_definition(S, d) for d in range(2, 13)}
        kept = [d for d, Q in want.items() if Q.multiplicity == 12 // gcd(d, 12)]
        assert kept == [2, 3, 4, 6, 8, 9, 12]
        monkeypatch.setattr(sdlab.semigroup, "_reroot", refuse)
        assert S.apery(12).elements == S.ap
        for d, Q in want.items():
            if d in kept:
                assert S.quotient(d) == Q
            else:
                with pytest.raises(AssertionError, match="re-rooted"):
                    S.quotient(d)


class TestFrobeniusConsistency:
    def test_frobenius_from_apery(self):
        for a, b in ((2, 3), (3, 5), (4, 7), (5, 6)):
            S = torus_semigroup(a, b)
            assert S.frobenius == a * b - a - b
            assert max(S.apery(b)) - b == S.frobenius


# -- properties against the brute-force closure ------------------------------------

GENERATORS = st.lists(st.integers(1, 60), min_size=2, max_size=4).filter(lambda gens: gcd(*gens) == 1)


@settings(deadline=None)
@given(gens=GENERATORS)
def test_invariants_match_closure(gens):
    S = NumericalSemigroup.from_generators(gens)
    bound = min(gens) * max(gens) + max(gens)
    members = closure_members(gens, bound)
    gaps = closure_gaps(gens)
    assert [x for x in range(-3, bound + 1) if S.contains(x)] == sorted(members)
    assert list(S.gaps) == gaps
    assert S.frobenius == (gaps[-1] if gaps else -1)
    assert S.genus == len(gaps)


@settings(deadline=None)
@given(gens=GENERATORS)
# in <3, 5> s = 6, 8, 9 are no generators, and s = 5, 8 shift the classes mod
# m = 3 (k - s wraps to another class); in <4, 7, 9> s = 8 is a multiple of m
# and 11, 13, 14 are not; in <2, 9> each odd s shifts
@example(gens=[3, 5])
@example(gens=[4, 7, 9])
@example(gens=[2, 9])
def test_apery_sets_match_closure(gens):
    # every nonzero member s below 2 * max(gens); each Apery element is at most
    # the Frobenius number plus s, below the closure's bound (Schur's bound)
    S = NumericalSemigroup.from_generators(gens)
    members = sorted(closure_members(gens, min(gens) * max(gens) + 2 * max(gens)))
    for s in (x for x in members if 0 < x < 2 * max(gens)):
        least = {}
        for x in members:
            least.setdefault(x % s, x)
        ap = S.apery(s)
        assert ap.modulus == len(ap) == s
        assert list(ap) == [least[k] for k in range(s)] == list(apery_by_definition(S, s))


@settings(deadline=None)
@given(gens=GENERATORS, d=st.integers(1, 40))
def test_quotient_trig_counts_class_zero(gens, d):
    # the gaps divisible by d, counted on their own, are class 0 of the class counts
    S = NumericalSemigroup.from_generators(gens)
    assert S.genus_quotient_trig(d) == S.class_counts(d)[0]


@settings(deadline=None)
@given(gens=GENERATORS)
# in <3, 5> d = 3, 6, 9, 12 are multiples of m (one class mod n = m/gcd(d, m)) and
# d >= 8 is past the conductor; in <4, 6, 9> d = 2, 6, 10 share the factor 2 with m;
# in <7, 11, 13> most d give S/d a multiplicity below n
@example(gens=[3, 5])
@example(gens=[4, 6, 9])
@example(gens=[7, 11, 13])
def test_quotient_matches_definition(gens):
    S = NumericalSemigroup.from_generators(gens)
    for d in range(1, 13):
        Q, R = S.quotient(d), quotient_by_definition(S, d)
        assert (Q.ap, Q.multiplicity, Q.generators, Q.gaps, Q.genus, Q.frobenius) == \
            (R.ap, R.multiplicity, R.generators, R.gaps, R.genus, R.frobenius)


@settings(deadline=None)
@given(gens=GENERATORS)
def test_quotient_gaps_match_closure(gens):
    S = NumericalSemigroup.from_generators(gens)
    gaps = closure_gaps(gens)
    limit = min(gens) * max(gens) + max(gens)
    members = closure_members(gens, limit)
    assert S.members(limit) == sorted(members)
    for d in range(1, 7):
        quotient_gaps = [g // d for g in gaps if g % d == 0]
        assert list(S.quotient(d).gaps) == quotient_gaps
        assert S.quotient(d).members(limit // d) == [x for x in range(limit // d + 1) if d * x in members]
        # the Apery floor sum, for every s <= 20 that is a nonzero member of S/d
        for s in (s for s in range(1, 21) if d * s not in gaps):
            assert S.genus_quotient_apery(d, s) == len(quotient_gaps)
