from fractions import Fraction
from math import gcd

import pytest

from sdlab.dedekind import (
    apostol_bernoulli,
    apostol_bernoulli_values,
    carlitz_floor_sum,
    carlitz_poly,
    carlitz_sawtooth_poly,
    dedekind_sum,
    mirimanoff,
    mirimanoff_vs_apostol_check,
    rt_poly,
    voronoi_sum,
    zolotarev,
)
from sdlab.errors import GcdNotOne
from sdlab.polyring import BiLaurent, LaurentPoly, roots_of_unity

from oracles import (
    coprime_pairs,
    dedekind_kb_form,
    dedekind_quotient_form,
    dedekind_root_form,
    dedekind_sawtooth_sum,
    rt_product_route,
)


class TestZolotarev:
    def test_examples(self):
        assert zolotarev(3, 5) == (0, 3, 1, 4, 2)
        assert zolotarev(1, 7) == tuple(range(7))
        assert zolotarev(2, 3) == (0, 2, 1)

    def test_permutation_and_division(self):
        for a, b in coprime_pairs(20, 1):
            perm = zolotarev(a, b)
            assert sorted(perm) == list(range(b))
            assert perm[0] == 0
            for k in range(b):
                assert a * k == b * (a * k // b) + perm[k]

    def test_inverse_composition(self):
        for a, b in coprime_pairs(20, 1):
            a_inv = pow(a, -1, b)
            perm, inv = zolotarev(a, b), zolotarev(a_inv, b)
            assert tuple(perm[inv[k]] for k in range(b)) == tuple(range(b))

    def test_gcd_rejected(self):
        with pytest.raises(GcdNotOne):
            zolotarev(6, 9)


class TestDedekindSum:
    def test_examples(self):
        assert dedekind_sum(1, 3) == Fraction(1, 18)
        assert dedekind_sum(3, 5) == 0
        assert dedekind_sum(1, 1) == 0

    def test_sawtooth_route_matches_defining_sum(self):
        # every coprime pair with 1 <= a, b <= 40, a > b included
        for a in range(1, 41):
            for b in range(1, 41):
                if gcd(a, b) == 1:
                    assert dedekind_sum(a, b) == dedekind_sawtooth_sum(a, b), (a, b)

    def test_voronoi_route_examples(self):
        assert dedekind_sum(1, 3, "voronoi") == Fraction(1, 18)
        assert dedekind_sum(3, 5, "voronoi") == 0

    def test_routes_agree(self):
        for a, b in coprime_pairs(25, 1):
            exact = dedekind_sum(a, b, "sawtooth")
            assert dedekind_sum(a, b, "voronoi") == exact
            assert abs(dedekind_sum(a, b, "cotangent") - exact) < 1e-9

    def test_other_displayed_forms(self):
        for a, b in coprime_pairs(15, 1):
            exact = dedekind_sum(a, b)
            assert dedekind_kb_form(a, b) == exact
            assert abs(dedekind_root_form(a, b) - exact) < 1e-9
            assert abs(dedekind_quotient_form(a, b) - exact) < 1e-9

    def test_reciprocity(self):
        for a, b in coprime_pairs(25, 1):
            lhs = dedekind_sum(a, b) + dedekind_sum(b, a)
            rhs = Fraction(-1, 4) + (Fraction(a, b) + Fraction(b, a) + Fraction(1, a * b)) / 12
            assert lhs == rhs

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            dedekind_sum(1, 3, "magic")

    def test_gcd_rejected(self):
        with pytest.raises(GcdNotOne):
            dedekind_sum(2, 4)


class TestVoronoiSum:
    def test_examples(self):
        assert voronoi_sum(3, 5, 1, 1) == 13
        assert voronoi_sum(1, 3, 1, 1) == 0
        assert voronoi_sum(3, 5, 2, 1) == 45

    def test_nonnegative(self):
        for a, b in coprime_pairs(12, 1):
            for m in range(4):
                for n in range(4):
                    assert voronoi_sum(a, b, m, n) >= 0


class TestMirimanoff:
    def test_examples(self):
        assert mirimanoff(1, 1, 5) == 10
        assert mirimanoff(-1, 2, 5) == 10
        assert mirimanoff(Fraction(7, 2), 0, 1) == 1
        assert mirimanoff(Fraction(7, 2), 3, 1) == 0

    def test_complex_matches_exact(self):
        val = mirimanoff(complex(-1, 0), 2, 5)
        assert abs(val - 10) < 1e-12


class TestApostolBernoulli:
    def test_order_zero_vanishes(self):
        assert apostol_bernoulli(0, Fraction(3), Fraction(5)) == 0
        assert apostol_bernoulli(0, 0, -1) == 0

    def test_order_one(self):
        lam = Fraction(5)
        assert apostol_bernoulli(1, Fraction(9), lam) == 1 / (lam - 1)

    def test_classical_branch(self):
        q = Fraction(3, 7)
        assert apostol_bernoulli(1, q, 1) == q - Fraction(1, 2)
        assert apostol_bernoulli(2, q, 1) == q**2 - q + Fraction(1, 6)
        assert apostol_bernoulli(3, q, 1) == q**3 - 3 * q**2 / 2 + q / 2

    def test_faulhaber_from_classical(self):
        # sum_{k=0}^{b-1} k^m = (B_{m+1}(b) - B_{m+1}(0)) / (m+1)
        for b in (3, 7, 10):
            for m in (1, 2, 3, 4):
                lhs = sum(k**m for k in range(b))
                rhs = (apostol_bernoulli(m + 1, b, 1) - apostol_bernoulli(m + 1, 0, 1)) / (m + 1)
                assert lhs == rhs


    def test_values_are_every_order_of_one_run(self):
        # entry n of one run equals the order-n value, at every kind of lam
        for q in (Fraction(3, 7), 0, 11):
            for lam in (1, 1 + 0j, Fraction(-2, 3), *roots_of_unity(7)[1:]):
                values = apostol_bernoulli_values(6, q, lam)
                assert len(values) == 7
                assert values == tuple(apostol_bernoulli(n, q, lam) for n in range(7)), (q, lam)
        with pytest.raises(ValueError):
            apostol_bernoulli_values(-1, 0, 2)


class TestMirimanoffApostolRelation:
    def test_exact_rational(self):
        assert mirimanoff_vs_apostol_check(Fraction(-1), 2, 5) == 0.0
        assert mirimanoff_vs_apostol_check(Fraction(-1), 0, 2) == 0.0
        assert mirimanoff(Fraction(-1), 0, 2) == 0
        assert mirimanoff_vs_apostol_check(Fraction(3), 4, 7) == 0.0

    def test_root_of_unity(self):
        lam = roots_of_unity(5)[1]
        assert mirimanoff_vs_apostol_check(lam, 1, 5) < 1e-8
        for b in (3, 7, 12):
            for j in range(1, b):
                assert mirimanoff_vs_apostol_check(roots_of_unity(b)[j], 2, b) < 1e-8

    def test_lam_one_rejected(self):
        with pytest.raises(ValueError):
            mirimanoff_vs_apostol_check(Fraction(1), 2, 5)


class TestCarlitzPoly:
    def test_examples(self):
        assert carlitz_poly(3, 5) == BiLaurent({(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1})
        assert carlitz_poly(1, 6) == BiLaurent({(0, k): 1 for k in range(5)})
        assert carlitz_poly(2, 3) == BiLaurent({(0, 0): 1, (1, 1): 1})

    def test_term_count_is_b_minus_one(self):
        for a, b in coprime_pairs(15, 1):
            assert carlitz_poly(a, b).evaluate(1, 1) == b - 1

    def test_degree_bounds(self):
        for a, b in coprime_pairs(12, 2):
            keys = [k for k, _ in carlitz_poly(a, b).items()]
            assert max(eq for eq, _ in keys) <= a - 1
            assert max(et for _, et in keys) <= b - 2


class TestRTPolys:
    def test_value_at_one_matches_voronoi(self):
        for a, b in coprime_pairs(15, 1):
            for m in range(4):
                for n in range(4):
                    v = voronoi_sum(a, b, m, n)
                    assert rt_poly("R", m, n, a, b).evaluate(1, 1) == v
                    assert rt_poly("T", m, n, a, b).evaluate(1, 1) == v

    def test_r11_expansion(self):
        q = BiLaurent({(1, 0): 1})
        t = BiLaurent({(0, 1): 1})
        expected = (1 + t) + (1 + t + t**2) + (1 + q) * (1 + t + t**2 + t**3)
        assert rt_poly("R", 1, 1, 3, 5) == expected

    def test_t_factor_is_polynomial(self):
        # (q^{ak} - q^{pi(k)})/(q^b - 1) expands to q^{pi(k)} * geometric block
        for a, b in ((3, 5), (4, 7)):
            tpoly = rt_poly("T", 0, 1, a, b)
            assert all(eq >= 0 for (eq, _), _ in tpoly.items())

    def test_equals_the_product_route(self):
        # equal floats at a sample point: both sum the same terms in the same order
        # a + b has the same pi(k) as a, and floor((a + b)k/b) = floor(ak/b) + k
        pairs = coprime_pairs(12, 1)
        for a, b in pairs + [(a + b, b) for a, b in pairs]:
            for kind in "RT":
                for m in range(4):
                    for n in range(4):
                        p, ref = rt_poly(kind, m, n, a, b), rt_product_route(kind, m, n, a, b)
                        assert p == ref, (kind, m, n, a, b)
                        assert p.evaluate(0.37, 0.61) == ref.evaluate(0.37, 0.61), (kind, m, n, a, b)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            rt_poly("X", 1, 1, 2, 3)


class TestCarlitzFloorSum:
    def test_examples(self):
        lhs, rhs = carlitz_floor_sum(3, 5)
        assert lhs == LaurentPoly({0: 1, 1: 2, 2: 1})
        assert rhs == lhs
        lhs, rhs = carlitz_floor_sum(1, 8)
        assert lhs == LaurentPoly({0: 7}) and rhs == lhs
        lhs, rhs = carlitz_floor_sum(2, 3)
        assert lhs == LaurentPoly({0: 1, 1: 1}) and rhs == lhs

    def test_identity_over_range(self):
        for a, b in coprime_pairs(20, 1):
            lhs, rhs = carlitz_floor_sum(a, b)
            assert lhs == rhs


class TestCarlitzSawtoothPoly:
    def test_examples(self):
        assert carlitz_sawtooth_poly(1, 2) == LaurentPoly({0: Fraction(-1, 2)})
        assert carlitz_sawtooth_poly(5, 1) == LaurentPoly({0: Fraction(-1, 2)})
        assert carlitz_sawtooth_poly(3, 5) == LaurentPoly(
            {
                0: Fraction(-1, 2),
                1: Fraction(1, 10),
                2: Fraction(-3, 10),
                3: Fraction(3, 10),
                4: Fraction(-1, 10),
            }
        )

    def test_coefficients_definition(self):
        for a, b in coprime_pairs(12, 1):
            p = carlitz_sawtooth_poly(a, b)
            for k in range(b):
                assert p.coeff(k) == Fraction(a * k, b) - (a * k // b) - Fraction(1, 2)
