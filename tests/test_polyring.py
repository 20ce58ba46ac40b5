import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab.polyring import (
    BiLaurent,
    LaurentPoly,
    ONE,
    ZERO,
    bi_monomial,
    from_t,
    geom_sum,
    monomial,
)
from sdlab.dedekind import carlitz_poly, carlitz_sawtooth_poly
from sdlab.errors import InexactDivision
from sdlab.semigroup import alexander_closed_form, torus_semigroup

from reference_oracles import coprime_pairs, literal_class_avg, long_division, pair_gaps


def random_poly(rng, max_terms=8, lo=-6, hi=12, cmax=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(lo, hi)] = Fraction(rng.randint(-cmax, cmax), rng.randint(1, 4))
    return LaurentPoly(terms)


def random_bipoly(rng, max_terms=8, lo=-4, hi=6, cmax=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(lo, hi), rng.randint(lo, hi)] = Fraction(rng.randint(-cmax, cmax), rng.randint(1, 4))
    return BiLaurent(terms)


class TestArithmetic:
    def test_cancellation(self):
        assert LaurentPoly({1: 1, 2: 1}) + LaurentPoly({2: -1}) == monomial(1)

    def test_geometric_telescoping(self):
        assert (ONE - monomial(1)) * LaurentPoly({0: 1, 1: 1, 2: 1}) == ONE - monomial(3)

    def test_laurent_shift_of_gap_poly(self):
        gaps = pair_gaps(3, 5)
        assert gaps == [1, 2, 4, 7]
        f = LaurentPoly({g: 1 for g in gaps})
        assert f * monomial(-1) == LaurentPoly({0: 1, 1: 1, 3: 1, 6: 1})

    def test_zero_coefficients_purged(self):
        f = LaurentPoly({0: 1, 3: 0, 5: Fraction(0)})
        assert f.support() == [0]
        assert (f - f).is_zero()

    def test_duplicate_exponents_accumulate(self):
        assert LaurentPoly([(2, 1), (2, 1), (0, 1)]) == LaurentPoly({2: 2, 0: 1})

    def test_ring_laws(self):
        for make in (random_poly, random_bipoly):
            rng = random.Random(7)
            for _ in range(60):
                f, g, h = (make(rng) for _ in range(3))
                assert f + g == g + f
                assert f * g == g * f
                assert (f + g) + h == f + (g + h)
                assert (f * g) * h == f * (g * h)
                assert f * (g + h) == f * g + f * h

    def test_scalar_and_pow(self):
        f = LaurentPoly({-1: 2, 3: -1})
        assert 3 * f == f * 3 == LaurentPoly({-1: 6, 3: -3})
        assert f**0 == ONE
        assert f**3 == f * f * f

    def test_pow_is_repeated_product(self):
        rng = random.Random(11)
        for _ in range(10):
            f = random_poly(rng, max_terms=5)
            g = BiLaurent({(rng.randint(-3, 3), rng.randint(-3, 3)): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                           for _ in range(rng.randint(0, 5))})
            fk, gk = ONE, BiLaurent({(0, 0): 1})
            for k in range(6):
                assert f**k == fk
                assert g**k == gk
                fk, gk = fk * f, gk * g
        with pytest.raises(ValueError):
            monomial(1) ** -1
        with pytest.raises(ValueError):
            bi_monomial(1, 0) ** -1

    @pytest.mark.parametrize("p", [LaurentPoly({0: 1, 2: -1}), BiLaurent({(0, 0): 1, (1, 2): -1})])
    def test_pow_makes_no_spare_product(self, p, monkeypatch):
        cls, mul, calls = type(p), type(p).__mul__, []

        def counted(x, y):
            calls.append(1)
            return mul(x, y)

        monkeypatch.setattr(cls, "__mul__", counted)
        for k, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2)):
            calls.clear()
            p**k
            assert len(calls) == products, k

    def test_operations_do_not_mutate(self):
        f = LaurentPoly({1: 1})
        g = LaurentPoly({1: -1})
        _ = f + g
        _ = f * g
        assert f == monomial(1) and g == monomial(1, -1)


class TestCoefficientContract:
    """What the shared core keeps: one exact coefficient rule for both classes,
    and classes that never mix."""

    def test_univariate_is_exact(self):
        for c in (1j, 0.5):
            with pytest.raises(TypeError):
                LaurentPoly({1: c})
        f = monomial(1)
        with pytest.raises(TypeError):
            f * 1j
        with pytest.raises(TypeError):
            1j * f
        with pytest.raises(TypeError):
            f + 0.5

    def test_bivariate_refuses_complex(self):
        for c in (1j, 0.5):
            with pytest.raises(TypeError):
                BiLaurent({(1, 0): c})
        p = BiLaurent({(1, 0): 1, (0, 2): 1})
        for c in (1j, 0.5):
            with pytest.raises(TypeError):
                p * c
            with pytest.raises(TypeError):
                c * p
        with pytest.raises(TypeError):
            p + 1j

    def test_classes_never_equal(self):
        assert (LaurentPoly({0: 1}) == BiLaurent({(0, 0): 1})) is False
        assert (BiLaurent({(0, 0): 1}) == LaurentPoly({0: 1})) is False
        with pytest.raises(TypeError):
            LaurentPoly({0: 1}) + BiLaurent({(0, 0): 1})

    def test_scalars_on_both_classes(self):
        for p, one in ((LaurentPoly({1: 1, 0: 3}), ONE), (BiLaurent({(1, 1): 1, (0, 0): 3}), bi_monomial(0, 0))):
            assert p - p == 0 and not p == 0
            assert p - 3 == p - 3 * one and len(p - 3) == 1
            assert 3 - p == 3 * one - p == -(p - 3)
            assert (p - 3) + 3 == p
            assert one * Fraction(5, 2) == Fraction(5, 2)


class TestConstructorGuards:
    """Public constructors validate; library builders with unique keys and unit
    coefficients wrap their dicts unchecked and must build the same polynomial."""

    def test_monomials_check_their_coefficient(self):
        with pytest.raises(TypeError):
            monomial(2, 0.5)
        with pytest.raises(TypeError):
            bi_monomial(1, 1, 0.5)
        with pytest.raises(TypeError):
            bi_monomial(1, 1, 2j)
        assert monomial(3, 0) == 0 and monomial(3, 0).is_zero()
        assert bi_monomial(1, 1, 0).is_zero()
        assert monomial(-2, Fraction(1, 3)) == LaurentPoly({-2: Fraction(1, 3)})

    def test_exponents_must_be_integers(self):
        # int() would truncate 2.5 to 2 and parse "3" as 3 without a word
        for e in (2.5, 0.5, 3.0, "3"):
            for build in (
                lambda: LaurentPoly({e: 1, 2: 1}),
                lambda: monomial(e),
                lambda: monomial(e, 0),
                lambda: BiLaurent({(e, 0): 1}),
                lambda: BiLaurent({(0, e): 1}),
                lambda: bi_monomial(e, 0),
                lambda: bi_monomial(0, e, 0),
            ):
                with pytest.raises(TypeError):
                    build()
        assert LaurentPoly({-3: 1, 2: 1}) == monomial(-3) + monomial(2)
        assert BiLaurent({(-1, 4): 2}) == bi_monomial(-1, 4, 2)

    def test_sawtooth_poly_keeps_validating(self):
        # 2 * (1 * 2 mod 4) = 4: the coefficient of q^2 is zero and must be dropped
        p = carlitz_sawtooth_poly(1, 4)
        assert 0 not in p._terms.values()
        assert p.support() == [0, 1, 3]

    def test_unchecked_builders_equal_validated_forms(self):
        for a, b in coprime_pairs(20, 1):
            S = torus_semigroup(a, b)
            n = a * b
            built = [
                (S.hilbert_trunc(n), LaurentPoly(dict.fromkeys(S.members(n), 1))),
                (carlitz_poly(a, b), BiLaurent({(a * k // b, k - 1): 1 for k in range(1, b)})),
            ]
            built += [(S.gap_poly_from_apery(s), LaurentPoly(dict.fromkeys(S.gaps, 1))) for s in (a, b)]
            for got, want in built:
                assert type(got) is type(want) and got._terms == want._terms, (a, b)
                assert all(type(c) is int and c for c in got._terms.values()), (a, b)


class TestMultisection:
    def test_class_extraction(self):
        f = LaurentPoly({g: 1 for g in pair_gaps(3, 5)})
        parts = f.multisection(5)
        assert parts[2] == LaurentPoly({2: 1, 7: 1})
        assert parts[0].is_zero()

    def test_single_class_is_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            f = random_poly(rng)
            assert f.multisection(1) == (f,)

    def test_classes_partition(self):
        rng = random.Random(2)
        for _ in range(40):
            f = random_poly(rng, max_terms=20, lo=-10, hi=40)
            n = rng.randint(1, 12)
            parts = f.multisection(n)
            assert len(parts) == n
            total = ZERO
            for r, part in enumerate(parts):
                assert all(e % n == r for e in part.support())
                total = total + part
            assert total == f

    def test_negative_exponent_classes(self):
        f = LaurentPoly({-7: 1, -2: 2, 3: 3})
        parts = f.multisection(5)
        assert parts[3] == parts[-2] == f
        assert all(part.is_zero() for r, part in enumerate(parts) if r != 3)


class TestRootEvaluation:
    def test_cyclotomic_vanishing(self):
        f = LaurentPoly({e: 1 for e in range(5)})
        assert abs(f.eval_root_of_unity(5, 1)) < 1e-12

    def test_value_at_one_counts_gaps(self):
        f = LaurentPoly({g: 1 for g in pair_gaps(3, 5)})
        assert abs(f.eval_root_of_unity(1, 0) - len(pair_gaps(3, 5))) < 1e-12

    def test_primitive_fourth_root(self):
        assert abs(monomial(1).eval_root_of_unity(4, 1) - 1j) < 1e-12

    def test_tolerance_against_exact_rational_evaluation(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_poly(rng, max_terms=30, lo=-5, hi=60, cmax=50)
            n, j = rng.randint(1, 10), rng.randint(0, 20)
            # e^{2 pi i j/n} = 1 when n = 1; compare against exact evaluation there
            if n == 1:
                exact = f.evaluate(Fraction(1))
                assert abs(f.eval_root_of_unity(1, j) - float(exact)) <= 1e-10 * (1 + float(sum(abs(c) for _, c in f.items())))

    def test_multiplicativity(self):
        rng = random.Random(4)
        for _ in range(40):
            f = random_poly(rng, max_terms=12, lo=-4, hi=30, cmax=5)
            g = random_poly(rng, max_terms=12, lo=-4, hi=30, cmax=5)
            n, j = rng.randint(1, 16), rng.randint(0, 30)
            lhs = (f * g).eval_root_of_unity(n, j)
            rhs = f.eval_root_of_unity(n, j) * g.eval_root_of_unity(n, j)
            assert abs(lhs - rhs) < 1e-9


class TestRootClassSum:
    def test_equals_multisection(self):
        f = LaurentPoly({g: 1 for g in pair_gaps(3, 5)})
        assert f.multisection(5)[2] == LaurentPoly({2: 1, 7: 1})
        assert ZERO.multisection(4) == (ZERO,) * 4
        assert monomial(3).multisection(3)[0] == monomial(3)

    def test_agrees_with_literal_float_average(self):
        # the core library invariant: the n parts of one multisection sum to f,
        # part r holds only exponents congruent to r mod n, and each part equals
        # the literal root-of-unity average at every sample point
        rng = random.Random(6)
        for _ in range(25):
            f = random_poly(rng, max_terms=200, lo=-5, hi=200, cmax=100)
            n = rng.randint(1, 20)
            parts = f.multisection(n)
            assert len(parts) == n and sum(parts, ZERO) == f
            for r, part in enumerate(parts):
                assert all(e % n == r for e in part.support())
                for _ in range(2):
                    q = rng.uniform(0.45, 0.95)
                    literal = literal_class_avg(f.items(), n, r, q)
                    assert abs(literal - part.evaluate(q)) < 1e-8


class TestGeomSum:
    def test_small_cases(self):
        assert geom_sum(0).is_zero()
        assert geom_sum(1) == ONE
        assert from_t(geom_sum(4)) == BiLaurent({(0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1})

    def test_closes_the_telescope(self):
        for m in range(8):
            assert (monomial(1) - 1) * geom_sum(m) == monomial(m) - ONE


class TestDivision:
    def test_exact_quotients(self):
        q = monomial(1)
        assert (ONE - monomial(3)).divexact(ONE - q) == LaurentPoly({0: 1, 1: 1, 2: 1})
        assert (monomial(2)).divexact(q) == q

    def test_laurent_shifted_quotient(self):
        f = LaurentPoly({-2: 1, 1: 1})
        g = monomial(-1)
        assert f.divexact(g) == LaurentPoly({-1: 1, 2: 1})

    def test_inexact_raises(self):
        with pytest.raises(InexactDivision):
            (monomial(2) + 1).divexact(monomial(1) - 1)

    def test_random_roundtrip(self):
        rng = random.Random(8)
        for _ in range(40):
            f = random_poly(rng)
            g = random_poly(rng)
            if g.is_zero():
                continue
            assert (f * g).divexact(g) == f

    def test_random_sparse_roundtrip(self):
        # few terms spread over a wide span, negative exponents, divisors
        # with unit and non-unit leading coefficients, Fraction coefficients
        rng = random.Random(9)
        for _ in range(200):
            f = random_poly(rng, max_terms=6, lo=-40, hi=60, cmax=5)
            g = random_poly(rng, max_terms=4, lo=-30, hi=30, cmax=3)
            if g.is_zero():
                continue
            if rng.random() < 0.5:
                g = g + monomial(g.degree() + rng.randint(1, 20), rng.choice((1, -1)))
            assert (f * g).divexact(g) == f

    def test_random_remainder_raises(self):
        rng = random.Random(10)
        checked = 0
        for _ in range(200):
            f = random_poly(rng, max_terms=6, lo=-20, hi=30)
            g = random_poly(rng, max_terms=4, lo=-10, hi=10)
            r = random_poly(rng, max_terms=3, lo=-10, hi=10)
            if f.is_zero() or len(g) < 2 or r.is_zero():
                continue
            if r.degree() - r.valuation() >= g.degree() - g.valuation():
                continue
            # a nonzero r spanning less than g, placed at the valuation of f*g,
            # is the remainder the division ends with
            r = r.shift((f * g).valuation() - r.valuation())
            with pytest.raises(InexactDivision):
                (f * g + r).divexact(g)
            checked += 1
        assert checked > 20

    def test_integer_quotient_stays_int(self):
        # a divisor led by 1 or -1 multiplies instead of dividing: the torus-knot
        # dividend (1 - q) sum_{i<m} q^{n*i} over 1 - q^m, led by -1
        for a, b in [(2, 3), (3, 5), (7, 4), (11, 13), (29, 31)]:
            m, n = sorted((a, b))
            num = (ONE - monomial(1)) * LaurentPoly(dict.fromkeys(range(0, m * n, n), 1))
            quotient = num.divexact(ONE - monomial(m))
            assert all(type(c) is int for _, c in quotient.items())
            assert quotient == alexander_closed_form(a, b)
        rng = random.Random(11)
        for _ in range(100):
            f = LaurentPoly({rng.randint(-20, 20): rng.randint(-9, 9) for _ in range(rng.randint(1, 6))})
            g = LaurentPoly({rng.randint(-10, 10): rng.randint(-9, 9) for _ in range(rng.randint(0, 3))})
            g = g + monomial(11, rng.choice((1, -1)))
            quotient = (f * g).divexact(g)
            assert quotient == f
            assert all(type(c) is int for _, c in quotient.items())

    def test_non_unit_lead_gives_exact_coefficients(self):
        # c / lead on two ints would be a float; the quotient holds ints or Fractions only
        q = monomial(1)
        g = 2 * q + 1
        for f in (3 * q**2 + 1, q - 5, LaurentPoly({-3: 7, 4: -2})):
            quotient = (f * g).divexact(g)
            assert quotient == f
            assert all(isinstance(c, (int, Fraction)) for _, c in quotient.items())
        half = (q + 1).divexact(2 * q + 2)
        assert half == LaurentPoly({0: Fraction(1, 2)}) and isinstance(half.coeff(0), Fraction)
        with pytest.raises(InexactDivision):
            (3 * q**2 + 1).divexact(g)

    def test_zero_dividend(self):
        q = monomial(1)
        assert ZERO.divexact(q + 1) == ZERO
        assert ZERO.divexact(monomial(-3, 2)) == ZERO
        assert ZERO.divexact(5) == ZERO

    def test_zero_divisor_raises(self):
        q = monomial(1)
        for zero in (ZERO, 0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                (q + 1).divexact(zero)
        with pytest.raises(ZeroDivisionError):
            ZERO.divexact(0)

    def test_scalar_divisor_is_a_constant(self):
        q = monomial(1)
        half = (q + 1).divexact(2)
        assert list(half._terms.items()) == [(1, Fraction(1, 2)), (0, Fraction(1, 2))]
        assert all(type(c) is Fraction for c in half._terms.values())
        assert (q + 1).divexact(2) == (q + 1).divexact(2 * ONE)
        assert (q - 3).divexact(Fraction(1, 3)) == 3 * q - 9
        negated = (q - 3).divexact(-1)
        assert negated == 3 - q and all(type(c) is int for c in negated._terms.values())

    def test_wrong_divisor_type_raises(self):
        q = monomial(1)
        for bad in (1.5, 2.0, "x", None, 1j, BiLaurent({(0, 0): 1})):
            with pytest.raises(TypeError):
                (q + 1).divexact(bad)

    def test_dividend_narrower_than_divisor(self):
        q = monomial(1)
        with pytest.raises(InexactDivision, match="quotient would not be a polynomial"):
            (q + 1).divexact(q**3 + 1)
        with pytest.raises(InexactDivision, match="quotient would not be a polynomial"):
            monomial(5).divexact(monomial(4) - monomial(2))

    def test_monomial_divisor(self):
        f = LaurentPoly({-2: 1, 5: Fraction(3, 4), 9: -7})
        assert f.divexact(monomial(-4)) == f.shift(4)
        assert f.divexact(monomial(3, -1)) == -f.shift(-3)
        assert f.divexact(monomial(0, 2)) == LaurentPoly({-2: Fraction(1, 2), 5: Fraction(3, 8), 9: Fraction(-7, 2)})

    def test_long_geometric_quotient(self):
        # a quotient of 10**5 unit terms, whose divisor has width 1
        assert (monomial(10**5) - ONE).divexact(monomial(1) - ONE) == geom_sum(10**5)

    def test_cancelled_remainder_restarts_as_int(self):
        # under a unit lead, the remainder at q^0 cancels to 0 after its Fraction
        # terms; the int term added after it leaves an int quotient coefficient
        g = LaurentPoly({0: Fraction(1, 2), 1: 1, 2: 1})
        num = LaurentPoly({2: Fraction(1, 2), 3: 2, 4: 1, 1: Fraction(-1, 2), 0: Fraction(-1, 2)})
        quotient = num.divexact(g)
        assert list(quotient._terms.items()) == [(2, 1), (1, 1), (0, -1)]
        assert [type(c) for c in quotient._terms.values()] == [int, int, int]


COEFF = st.one_of(st.integers(-9, 9), st.fractions(min_value=-5, max_value=5, max_denominator=6)).filter(bool)
SPARSE = st.dictionaries(st.integers(-40, 40), COEFF, max_size=6).map(LaurentPoly)
LEAD = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def divisors(draw):
    """A nonzero divisor whose leading coefficient is drawn from unit and non-unit leads."""
    rest = draw(SPARSE)
    top = draw(st.integers(-40, 40)) if rest.is_zero() else rest.degree() + draw(st.integers(1, 30))
    return rest + monomial(top, draw(LEAD))


WIDE = st.dictionaries(st.integers(-1500, 1500), COEFF, max_size=8).map(LaurentPoly)


@st.composite
def wide_divisors(draw):
    """A divisor of width 0, 1 or 2, or up to 40: its lowest and leading terms that far apart, up to three between."""
    width = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 40)))
    low = draw(st.integers(-20, 20))
    inner = draw(st.dictionaries(st.integers(low + 1, low + width - 1), COEFF, max_size=3)) if width > 1 else {}
    return LaurentPoly({**inner, low: draw(COEFF), low + width: draw(LEAD)})


BISPARSE = st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), COEFF, max_size=6).map(BiLaurent)
SAME_KIND = st.one_of(st.tuples(SPARSE, SPARSE, SPARSE), st.tuples(BISPARSE, BISPARSE, BISPARSE))


class TestRingProperties:
    @settings(deadline=None)
    @given(fgh=SAME_KIND)
    def test_ring_laws(self, fgh):
        f, g, h = fgh
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @settings(deadline=None)
    @given(f=st.one_of(SPARSE, BISPARSE))
    def test_pow_is_repeated_product(self, f):
        assert f**0 == 1
        product = f
        for k in range(1, 5):
            assert f**k == product
            product = product * f


class TestDivisionProperties:
    @settings(deadline=None)
    @given(f=SPARSE, g=divisors())
    def test_product_divides_back(self, f, g):
        assert (f * g).divexact(g) == f

    @settings(deadline=None)
    @given(f=SPARSE, g=divisors(), r=SPARSE.filter(bool))
    def test_narrow_remainder_raises(self, f, g, r):
        # a nonzero multiple of g spans at least as much as g, so r is not one
        if r.degree() - r.valuation() >= g.degree() - g.valuation():
            r = monomial(r.valuation(), r.coeff(r.valuation()))
            if len(g) < 2:
                g = g + monomial(g.valuation() - 1)
        with pytest.raises(InexactDivision):
            (f * g + r).divexact(g)


class TestDivisionAgainstOracle:
    @settings(deadline=None)
    @given(
        num=st.one_of(WIDE, st.tuples(WIDE, st.one_of(st.just(ZERO), WIDE))),
        g=wide_divisors(),
    )
    def test_matches_long_division(self, num, g):
        # an arbitrary dividend, or a product f * g plus an arbitrary r (maybe 0),
        # over spans of up to a few thousand exponents
        if isinstance(num, tuple):
            f, r = num
            num = f * g + r
        expected = long_division(dict(num._terms), dict(g._terms))
        if expected is None:
            with pytest.raises(InexactDivision):
                num.divexact(g)
        else:
            quotient = num.divexact(g)
            assert list(quotient._terms.items()) == list(expected.items())
            assert [type(c) for c in quotient._terms.values()] == [type(c) for c in expected.values()]


class TestBiLaurent:
    def test_product_and_pow(self):
        q = bi_monomial(1, 0)
        t = bi_monomial(0, 1)
        assert (q + t) * (q - t) == q**2 - t**2
        assert (1 + q * t) ** 2 == 1 + 2 * q * t + q**2 * t**2

    def test_scale_and_shift(self):
        p = BiLaurent({(1, 0): 1, (0, 1): 1})
        assert p.scale_q(3) == BiLaurent({(3, 0): 1, (0, 1): 1})
        assert p.shift(-1, 2) == BiLaurent({(0, 2): 1, (-1, 3): 1})

    def test_embeddings(self):
        f = geom_sum(3)
        assert from_t(f) == BiLaurent({(0, 0): 1, (0, 1): 1, (0, 2): 1})

    def test_evaluate_exact(self):
        p = BiLaurent({(-1, 1): Fraction(1, 2), (2, 0): 1})
        val = p.evaluate(Fraction(2), Fraction(3))
        assert val == Fraction(1, 2) * Fraction(1, 2) * 3 + 4

    @settings(deadline=None)
    @given(terms=st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), COEFF, max_size=12))
    def test_evaluate_sums_terms_in_order(self, terms):
        # the same float operations in the same order as the literal sum, so the same bits
        qv, tv = complex(0.7, 0.2), complex(-0.4, 0.9)
        literal = sum(c * qv**eq * tv**et for (eq, et), c in terms.items())
        assert BiLaurent(terms).evaluate(qv, tv) == literal


class TestConstantsAndDisplay:
    def test_str_forms(self):
        assert str(ZERO) == "0"
        assert str(LaurentPoly({0: 1, 1: -1, 2: 1})) == "1 - q + q^2"
        assert str(BiLaurent({(1, 1): 1, (0, 0): 1})) == "1 + q*t"
