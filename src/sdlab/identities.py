"""Mechanical verification of the identity catalog.

One checker per identity.  Each checker computes the two sides by independent
routes and returns an IdentityReport; those of prop1 and gapvalues return one
report per residue class of the modulus they are called with.  Where the
identity is a polynomial statement, the root-of-unity average on one side is
realized exactly by multisection and _exact reports the comparison (mode
"exact", residual 0 on pass); otherwise both sides are evaluated in complex
floating point against the defining sum and _within compares the residual with
its tolerance (mode "float"): FLOAT_TOL * (1 + |LHS|), or the absolute
GAP_VALUES_TOL for gapvalues.  Checkers do not time; run_suite does.

The catalog itself is CATALOG, next to run_suite: one row per checker with
the report ids it emits, the statement checked and the checks run_suite
makes of it.  IDENTITY_IDS and the id list of `sdlab verify --help` are
computed from it, and a test holds the README table to it.
"""

from __future__ import annotations

import json
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import fsum, gcd, isfinite
from operator import itemgetter
from typing import Callable, NamedTuple

from .dedekind import (
    apostol_bernoulli_values,
    carlitz_floor_sum,
    carlitz_poly,
    carlitz_sawtooth_poly,
    mirimanoff,
    voronoi_sum,
)
from .errors import EmptyPlan, TooLarge, UnknownIdentity, require_coprime
from .polyring import (
    BiLaurent,
    LaurentPoly,
    ONE,
    bi_monomial,
    from_t,
    geom_sum,
    monomial,
    roots_of_unity,
)
from .semigroup import NumericalSemigroup, torus_semigroup

FLOAT_TOL = 1e-8
GAP_VALUES_TOL = 1e-9
QT_SAMPLE = (0.37, 0.59)
# check_prop2 refuses n > PROP2_N_MAX
PROP2_N_MAX = 3
# the catalog's prop2 row sweeps n >= 2 only for b <= PROP2_B_MAX
PROP2_B_MAX = 12
# the catalog's prop2 row sweeps m = 1..PROP2_M_MAX
PROP2_M_MAX = 4


@dataclass(slots=True)
class IdentityReport:
    identity_id: str
    params: dict
    mode: str  # "exact" | "float"
    residual: float
    verdict: str  # "pass" | "fail" | "expected-discrepancy"
    elapsed_ms: float = 0.0  # set by run_suite
    notes: str | None = None


def _finish(identity_id, params, mode, residual, ok, notes=None, expected=False):
    """The report of one check.  It owns params, uncopied: each caller passes a dict of its own."""
    verdict = "expected-discrepancy" if expected else "pass" if ok else "fail"
    return IdentityReport(identity_id, params, mode, float(residual), verdict, 0.0, notes)


def _exact(identity_id, params, ok):
    return _finish(identity_id, params, "exact", 0.0 if ok else 1.0, ok)


def _within(identity_id, params, residual, tol):
    return _finish(identity_id, params, "float", residual, residual <= tol)


def _gen_params(S: NumericalSemigroup) -> dict:
    return {f"g{i + 1}": g for i, g in enumerate(S.generators)}


@lru_cache(maxsize=16)  # run_suite checks one pair at a time
def _gap_root_values(a: int, b: int) -> tuple:
    """C at every b-th root of unity for <a, b>, computed once per pair.

    Exact regroup of the defining sum by residue class of the exponent:
    sum_g w^{jg} = sum_r count_r w^{jr}, which drops the cost from
    O(b * genus) to O(b^2) for a full vector of values.  The counts are
    class_counts(b) of torus_semigroup(a, b), taken from its gap list.
    """
    counts = torus_semigroup(a, b).class_counts(b)
    roots = roots_of_unity(b)
    support = [r for r in range(b) if counts[r]]
    return tuple(sum((counts[r] * roots[(j * r) % b] for r in support), 0j) for j in range(b))


# -- section 1: Hilbert series ---------------------------------------------------


def check_eq1(a: int, b: int) -> IdentityReport:
    """Truncated Hilbert series of <a, b> against (1 - q^{ab}) / ((1-q^a)(1-q^b)).

    Past N = ab (> Frobenius) the series is q^{N+1}/(1-q), so with H truncated at N the
    check is ((1-q) H + q^{N+1})(1-q^a)(1-q^b) = (1-q)(1-q^{ab}), exact, by shifted differences.
    """
    require_coprime(a, b)
    N = a * b
    H = torus_semigroup(a, b).hilbert_trunc(N)
    f = H - H.shift(1) + monomial(N + 1)
    for k in (a, b):
        f = f - f.shift(k)
    ok = f == LaurentPoly([(0, 1), (1, -1), (N, -1), (N + 1, 1)])
    return _exact("eq1", {"a": a, "b": b, "N": N}, ok)


# -- section 2: Apery data from the gap polynomial -------------------------------


def check_eq6(S: NumericalSemigroup, s: int) -> IdentityReport:
    """Gap polynomial reassembled from Apery geometric blocks: for a nonzero
    member s, summing q^k (1 + q^s + ... + q^{s(floor(a_k/s)-1)}) over the
    residue classes k must reproduce C_S exactly."""
    ok = S.gap_poly_from_apery(s) == S.gap_poly()
    params = {**_gen_params(S), "s": s}
    return _exact("eq6", params, ok)


def _prop1_reports(ids: tuple, S: NumericalSemigroup, s: int, cases) -> list:
    """The reports of prop1 at modulus s, two per case (params, class r, floor):
    the polynomial statement ids[0] and the integer statement ids[1], each with
    class r and that floor.  What the cases share is computed once: the class
    split of C_S and its class counts."""
    poly_id, count_id = ids
    parts = S.gap_poly().multisection(s)
    counts = S.class_counts(s)
    reports = []
    for params, r, fl in cases:
        # (q^s - 1) * part_r = q^{s*fl + r} - q^r; multiplying by q^s - 1 is
        # injective, so this holds iff part_r is the block q^r (1 + q^s + ... + q^{s(fl-1)})
        ok = parts[r]._terms == dict.fromkeys(range(r, r + s * fl, s), 1)
        reports.append(_exact(poly_id, params, ok))
        err = abs(fl - counts[r])
        reports.append(_finish(count_id, params.copy(), "exact", err, err == 0))
    return reports


def check_prop1(S: NumericalSemigroup, s: int) -> list:
    """Apery-element floor data of a general semigroup from its gap polynomial,
    for each class k mod the nonzero member s a prop1.eq2 and a prop1.eq3
    report, all exact.

    prop1.eq2: q^{s*floor(a_k/s)} = 1 + (q^s - 1)/(s q^k) * sum_j e^{-2pi i jk/s} C_S(e^{2pi i j/s} q);
               the j-average is the class-k part of C_S (multisection), so
               both sides are Laurent polynomials.
    prop1.eq3: floor(a_k/s) equals the number of gaps congruent to k mod s.
    """
    ap = S.apery(s)
    gens = _gen_params(S)
    cases = [({**gens, "s": s, "k": k}, k, ap[k] // s) for k in range(s)]
    return _prop1_reports(("prop1.eq2", "prop1.eq3"), S, s, cases)


def check_prop1_ab(a: int, b: int) -> list:
    """The two-generator specialization, a prop1.eq4 and a prop1.eq5 report per
    k < b: the Apery element a*k of <a, b> mod b lies in class pi(k) = a*k mod b,
    which holds floor(ak/b) gaps.  prop1.eq4 is the polynomial statement,
    prop1.eq5 the integer one; both exact."""
    require_coprime(a, b)
    cases = [({"a": a, "b": b, "k": k}, a * k % b, a * k // b) for k in range(b)]
    return _prop1_reports(("prop1.eq4", "prop1.eq5"), torus_semigroup(a, b), b, cases)


# -- section 3: Voronoi sums ------------------------------------------------------


@lru_cache(maxsize=4)  # run_suite sweeps b in ascending order
def _prop2_kernels(b: int, mmax: int) -> tuple:
    """Both prop2 kernels at every b-th root eps^r for every m <= mmax, as
    (mir, ab) at index m - 1, each indexed by r: M_{b-1}(eps^r, m) and
    (B_{m+1}(b, eps^r) - B_{m+1}(0, eps^r))/(m+1).  The Apostol-Bernoulli
    values of every m come from one recurrence run per (q, root)."""
    roots = roots_of_unity(b)
    values = [(apostol_bernoulli_values(mmax + 1, b, lam), apostol_bernoulli_values(mmax + 1, 0, lam)) for lam in roots]
    return tuple(
        (tuple(mirimanoff(lam, m, b) for lam in roots),
         tuple(complex(at_b[m + 1] - at_0[m + 1]) / (m + 1) for at_b, at_0 in values))
        for m in range(1, mmax + 1)
    )


@lru_cache(maxsize=16)  # run_suite checks one pair at a time, n <= PROP2_N_MAX
def _cyclic_power(a: int, b: int, n: int) -> tuple:
    """(sum_j C(eps^j) x^j)^n mod (x^b - 1) as its b coefficients, once per
    (a, b, n): the n-th power is one cyclic convolution of the (n-1)-th with C."""
    Cj = _gap_root_values(a, b)
    if n == 1:
        return Cj
    P = _cyclic_power(a, b, n - 1)
    return tuple(sum(P[i] * Cj[(r - i) % b] for i in range(b)) for r in range(b))


def _prop2_rhs(a: int, b: int, m: int, n: int) -> tuple[complex, complex]:
    """The two right-hand sides of check_prop2, (Mirimanoff form, Apostol-Bernoulli form)."""
    P = _cyclic_power(a, b, n)
    mir, ab = _prop2_kernels(b, max(m, PROP2_M_MAX))[m - 1]
    rhs_mir = sum(P[r] * mir[(-a * r) % b] for r in range(b)) / b**n
    rhs_ab = sum(P[r] * ab[(-a * r) % b] for r in range(b)) / b**n
    return rhs_mir, rhs_ab


def check_prop2(a: int, b: int, m: int, n: int) -> IdentityReport:
    """V_{m,n}(a, b) against its root-of-unity expansion, both right-hand forms.

    The direct integer sum sum k^m floor(ak/b)^n is compared with
    (1/b^n) * sum over compositions (i_0..i_{b-1}) of n of the multinomial
    coefficient times prod_j C(eps^j)^{i_j} times M_{b-1}(eps^{-aW}, m),
    W = sum j*i_j, and with the same expression with M replaced by the
    Apostol-Bernoulli difference (B_{m+1}(b, lam) - B_{m+1}(0, lam))/(m+1).

    The kernel depends on W only mod b, so the composition sum is the cyclic
    power P = (sum_j C(eps^j) x^j)^n mod (x^b - 1), built with n - 1 cyclic
    convolutions, followed by sum_r P[r] K(eps^{-ar}): b kernel evaluations
    per form.  n = 1 is the same formula with P = C.  The root values come from
    the cache _gap_root_values, the powers from the cache _cyclic_power (each
    built once per (a, b, n), P^n from P^(n-1)), the kernel values from the
    cache _prop2_kernels (one table per b for every m the catalog sweeps).

    The check is float only, within FLOAT_TOL * (1 + |V|), at any b; n is
    at most PROP2_N_MAX.
    """
    require_coprime(a, b)
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > PROP2_N_MAX:
        raise TooLarge(f"n={n} > {PROP2_N_MAX}")

    v = voronoi_sum(a, b, m, n)
    rhs_mir, rhs_ab = _prop2_rhs(a, b, m, n)
    residual = max(abs(v - rhs_mir), abs(v - rhs_ab))
    return _within("prop2", {"a": a, "b": b, "m": m, "n": n}, residual, FLOAT_TOL * (1 + abs(v)))


# -- section 4: Dedekind-Carlitz polynomials --------------------------------------


def check_prop3(a: int, b: int) -> IdentityReport:
    """c(q^b, t; a, b) = (t^{b-1}-1)/(t-1) + (q^b-1)/b * sum_j d_j(q, t) C(eps^j q).

    Checked exactly: for each k the j-average collapses to the class-pi(k)
    multisection of the gap polynomial, so both sides are bivariate Laurent
    polynomials.  Multiplying by q^b - 1 keeps each class mod b, so the gap
    polynomial is multiplied by it once, by shifts, and the product multisected.
    """
    require_coprime(a, b)
    gap_poly = torus_semigroup(a, b).gap_poly()
    parts = (gap_poly.shift(b) - gap_poly).multisection(b)
    # block k, (q^b - 1) * part pi(k) shifted by q^{-pi(k)}, fills only
    # t-degree k - 1, so no two blocks share a key
    blocks = {}
    for k in range(1, b):
        pik = a * k % b
        for e, c in parts[pik]._terms.items():
            blocks[e - pik, k - 1] = c
    ok = carlitz_poly(a, b).scale_q(b) == from_t(geom_sum(b - 1)) + BiLaurent._raw(blocks)
    return _exact("prop3", {"a": a, "b": b}, ok)


def _r11_telescoped(a: int, b: int) -> BiLaurent:
    """R_{1,1}(q, t) (q-1)(t-1) = sum_{k=1}^{b-1} (q^fl - 1)(t^k - 1), fl = floor(ak/b).

    Each block of R_{1,1} is a product of two geometric sums, which (q-1)(t-1)
    telescopes to four terms.  The keys (fl, k) and (0, k) are distinct per k
    and fl >= 1, so only (fl, 0) and (0, 0) collect, and no sum is zero.
    """
    terms: dict[tuple[int, int], int] = {}
    for k in range(1, b):
        fl = a * k // b
        if fl:
            terms[fl, k] = 1
            terms[fl, 0] = terms.get((fl, 0), 0) - 1
            terms[0, k] = -1
            terms[0, 0] = terms.get((0, 0), 0) + 1
    return BiLaurent._raw(terms)


def _t11_sum(a: int, b: int, q0: float, t0: float) -> tuple[float, int]:
    """T_{1,1}(q0, t0) from its defining sum, and its term count, in O(b).

    Block k is q^{pi(k)} (q^{b*fl} - 1)/(q^b - 1) * (t^k - 1)/(t - 1) with
    fl = floor(ak/b), pi(k) = ak mod b: fl powers of q times k powers of t.
    pi(k) fixes k, so no two blocks share a key and the count is sum_k k*fl.
    """
    qb = q0**b
    value, count = 0.0, 0
    for k in range(1, b):
        fl, pik = divmod(a * k, b)
        value += q0**pik * (qb**fl - 1) / (qb - 1) * (t0**k - 1) / (t0 - 1)
        count += k * fl
    return value, count


def _t11_display(a: int, b: int, q0: float, t0: float) -> tuple[float, int]:
    """The display's k = 1 reading, q^{a mod b} R_{1,1}(q^b, t), valued at
    (q0, t0) in O(b), and its term count.

    Block k of R_{1,1}(q^b, t) is (Q^fl - 1)/(Q - 1) * (t^k - 1)/(t - 1) with
    Q = q^b and fl = floor(ak/b).  math.fsum sums the blocks: a plain sum
    moves the last printed digit of a display value at (19, 37).  The blocks
    are nested boxes [0, fl) x [0, k) of positive coefficients, so block b - 1
    covers R_{1,1}'s whole support and the count is floor(a(b-1)/b) * (b-1).
    """
    qb = q0**b
    blocks = fsum((qb ** (a * k // b) - 1) / (qb - 1) * (t0**k - 1) / (t0 - 1) for k in range(1, b))
    return q0 ** (a % b) * blocks, a * (b - 1) // b * (b - 1)


def check_prop4(a: int, b: int) -> tuple[IdentityReport, IdentityReport]:
    """The two bivariate floor-sum displays, each checked in O(a + b).

    R: R_{1,1}(q,t) (q-1)(t-1) must equal the display's right side
       t c(q,t) - (b-1)(q^{a-1}-1) - t(t^{b-1}-1)/(t-1) + (q-1) sum_k floor(bk/a) q^{k-1}.
       The left side is its telescoped sum (_r11_telescoped), at most 4(b-1)
       terms, and the right side is built by shifts, so the check is exact
       equality of two bivariate polynomials; a = 1 passes, both sides being 0.
       This is Carlitz reciprocity (cor510) lifted to two variables.

    T: the companion display factors q^{pi(k)} out of a sum over k, leaving the
       index unbound; stripped of that factor it reads R_{1,1}(q^b, t).  The
       checker compares T_{1,1} by definition against q^j * R_{1,1}(q^b, t) for
       every face value j = pi(k) and reports expected-discrepancy unless all
       readings agree.  No corrected formula is assumed.  Both T_{1,1}
       (_t11_sum) and the display's k = 1 reading (_t11_display) are valued at
       QT_SAMPLE and counted in O(b), and the term counts decide the verdict:
       a shift keeps the term count, so the readings can all agree only when
       the counts do.  For b >= 3 and T_{1,1} != 0, readings j = 1 and j = 2
       are distinct shifts of one nonzero polynomial, so they cannot both equal
       T_{1,1}; for b <= 2, j = 1 is the only reading.  So all readings agree
       iff the counts agree and b <= 2 or T_{1,1} = 0 (which holds at a = 1).
    """
    require_coprime(a, b)
    floor_corr = BiLaurent._raw({(k - 1, 0): fl for k in range(1, a) if (fl := b * k // a)})
    rhs = (
        carlitz_poly(a, b).shift(0, 1)
        - (b - 1) * (bi_monomial(a - 1, 0) - 1)
        - from_t(geom_sum(b - 1)).shift(0, 1)
        + floor_corr.shift(1, 0)
        - floor_corr
    )
    r_report = _exact("prop4.R11", {"a": a, "b": b}, rhs == _r11_telescoped(a, b))

    q0, t0 = QT_SAMPLE
    tv, t11_count = _t11_sum(a, b, q0, t0)
    dv, display_count = _t11_display(a, b, q0, t0)
    all_match = t11_count == display_count and (b <= 2 or t11_count == 0)
    residual = abs(tv - dv)
    notes = (
        f"T11 by definition = {tv:.12g}, display with k=1 reading = {dv:.12g} "
        f"at (q,t)=({q0},{t0}); term counts {t11_count} vs {display_count}"
    )
    return r_report, _finish("prop4.T11", {"a": a, "b": b}, "exact", residual, all_match, notes=notes, expected=not all_match)


def check_prop5(a: int, b: int) -> IdentityReport:
    """sum_{k=0}^{b-1} floor(ak/b) q^k = (q^b-1)/b * sum_j C(eps^j) / (eps^{-ja} q - 1).

    Checked exactly: expanding (q^b-1)/(eps^{-ja} q - 1) geometrically shows
    the coefficient of q^i on the right is the number of gaps in class a*i
    mod b, which must equal floor(ai/b).
    """
    require_coprime(a, b)
    counts = torus_semigroup(a, b).class_counts(b)
    ok = all(a * i // b == counts[(a * i) % b] for i in range(b))
    return _exact("prop5", {"a": a, "b": b}, ok)


# -- section 5: classical Dedekind sums -------------------------------------------


def check_gap_values(a: int, b: int) -> list:
    """Gap polynomial of <a, b> at every b-th root of unity, one report per k < b.

    k = 0: the value is the genus (a-1)(b-1)/2, checked exactly.
    0 < k < b: C(eps^k) = a/(eps^{ka} - 1) - 1/(eps^k - 1), float comparison
    against the absolute tolerance GAP_VALUES_TOL.  C(eps^k) is read from
    _gap_root_values, the defining sum over the gaps regrouped by class mod b
    (class_counts(b) of the gap list), so it does not use the closed form.
    """
    require_coprime(a, b)
    S = torus_semigroup(a, b)
    ok = 2 * S.genus == (a - 1) * (b - 1)
    reports = [_exact("gapvalues", {"a": a, "b": b, "k": 0}, ok)]
    values, roots = _gap_root_values(a, b), roots_of_unity(b)
    for k in range(1, b):
        err = abs(values[k] - (a / (roots[k * a % b] - 1) - 1 / (roots[k] - 1)))
        reports.append(_within("gapvalues", {"a": a, "b": b, "k": k}, err, GAP_VALUES_TOL))
    return reports


def check_prop6(a: int, b: int) -> IdentityReport:
    """V_{1,1}(a, b) = sum_{j=1}^{b-1} C(eps^j)/(eps^{-ja} - 1) + (a-1)(b-1)^2/4.

    Float: the defining integer sum against the literal complex sum, with
    C(eps^j) read from _gap_root_values.
    """
    require_coprime(a, b)
    v = voronoi_sum(a, b, 1, 1)
    roots = roots_of_unity(b)
    cj = _gap_root_values(a, b)
    trig = sum((cj[j] / (roots[(-j * a) % b] - 1) for j in range(1, b)), 0j)
    err = abs(v - (trig + (a - 1) * (b - 1) ** 2 / 4))
    return _within("prop6.eq7", {"a": a, "b": b}, err, FLOAT_TOL * (1 + abs(v)))


# -- section 6: quotient semigroups ------------------------------------------------


@lru_cache(maxsize=1)  # the catalog row's filter asks first, then check_prop7 at the same (S, d)
def _prop7_svals(ap: tuple, d: int) -> tuple:
    """The s <= 20 with d*s in the semigroup of Apery set ap: the Apery moduli a prop7 check uses."""
    return tuple(s for s in range(1, 21) if d * s >= ap[d * s % len(ap)])


def check_prop7(S: NumericalSemigroup, d: int) -> IdentityReport:
    """g(S/d) three ways: brute-force quotient genus, multisection count of the
    gaps divisible by d, and the Apery floor sum for every valid s <= 20."""
    if d < 1:
        raise ValueError("d must be >= 1")
    quotient = S.quotient(d)
    g = quotient.genus
    svals = _prop7_svals(S.ap, d)
    if not svals:
        raise ValueError("no nonzero s <= 20 in S/d")
    ok = S.genus_quotient_trig(d) == g and all(S.genus_quotient_apery(d, s) == g for s in svals)
    params = {**_gen_params(S), "d": d}
    return _exact("prop7", params, ok)


# -- extra catalog rows exercised by acceptance criterion 6 -------------------------


def check_cor510(a: int, b: int) -> IdentityReport:
    """Floor-sum polynomial identity relating sums over k mod b and k mod a."""
    lhs, rhs = carlitz_floor_sum(a, b)
    ok = lhs == rhs
    return _exact("cor510", {"a": a, "b": b}, ok)


def check_sawtooth_poly(a: int, b: int) -> IdentityReport:
    """The sawtooth generating polynomial against its rational closed form,
    compared as rational functions over (q-1)^2.

    Both sides are scaled by 2b, which makes them integer polynomials:
    2b * lhs * (q-1)^2 = 2a (b q^b (q-1) - q (q^b - 1)) - b (q^b - 1)(q - 1)
    - 2b (q-1)^2 sum_k floor(ak/b) q^k.  A coefficient of lhs whose
    denominator does not divide 2b fails the check.
    """
    two_b = 2 * b
    scaled = {}
    for e, c in carlitz_sawtooth_poly(a, b)._terms.items():
        if two_b % c.denominator:
            return _exact("sawtoothpoly", {"a": a, "b": b}, False)
        scaled[e] = c.numerator * (two_b // c.denominator)
    q1 = monomial(1) - ONE
    q1_sq = q1 * q1
    qb_minus_1 = monomial(b) - ONE
    deriv_num = b * monomial(b) * q1 - qb_minus_1.shift(1)  # b q^b (q-1) - q (q^b - 1)
    floor_poly = LaurentPoly._raw({k: fl for k in range(b) if (fl := a * k // b)})
    rhs = 2 * a * deriv_num - b * qb_minus_1 * q1 - two_b * floor_poly * q1_sq
    ok = LaurentPoly._raw(scaled) * q1_sq == rhs
    return _exact("sawtoothpoly", {"a": a, "b": b}, ok)


# -- suite ---------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteRanges:
    """Parameter ranges for run_suite; SuiteRanges() is the `sdlab verify`
    default run, and the CLI's defaults are read from these fields.

    pairs_max <= 0 requests an empty run.  prop2 sweeps the same coprime
    pairs, for n = 1 every one and for n >= 2 those with b <= PROP2_B_MAX.
    run_suite makes every check of one pair before the next, so no cache has
    to hold more than one pair."""

    pairs_max: int = 20
    semigroups: int = 6
    member_max: int = 12
    d_max: int = 8
    identities: tuple = ()


def coprime_pairs(bmax: int) -> list:
    return [(a, b) for b in range(3, bmax + 1) for a in range(2, b) if gcd(a, b) == 1]


def random_semigroups(count: int, rng: random.Random) -> list:
    """count random semigroups with 2-4 generators from [2, 30], rerolled to gcd 1."""
    out = []
    for _ in range(count):
        while True:
            gens = [rng.randint(2, 30) for _ in range(rng.randint(2, 4))]
            if gcd(*gens) == 1:
                break
        out.append(NumericalSemigroup.from_generators(gens))
    return out


# -- the catalog ---------------------------------------------------------------


class CatalogRow(NamedTuple):
    ids: tuple  # the report ids the checker emits
    statement: str
    # pair(a, b) returns the reports of one coprime pair, semigroup(S, ranges)
    # those of one random semigroup.  Each names its checker in its body, so
    # the checker is looked up when it is called.
    pair: Callable | None = None
    semigroup: Callable | None = None


CATALOG = (
    CatalogRow(("eq1",), "Hilbert series of <a, b> in closed form",
               pair=lambda a, b: (check_eq1(a, b),)),
    CatalogRow(("eq6",), "gap polynomial reassembled from Apery geometric blocks",
               pair=lambda a, b: (check_eq6(torus_semigroup(a, b), s) for s in (a, b)),
               semigroup=lambda S, r: (check_eq6(S, s) for s in S.members(r.member_max)[1:])),
    # one check_prop1 call checks both statements at a modulus
    CatalogRow(("prop1.eq2", "prop1.eq3"), "Apery floor data of any semigroup from its gap polynomial; "
               "floor(a_k/s) counts the gaps in class k",
               semigroup=lambda S, r: chain.from_iterable(check_prop1(S, s) for s in S.members(r.member_max)[1:])),
    CatalogRow(("prop1.eq4", "prop1.eq5"), "prop1.eq2 and prop1.eq3 for two generators (class index a*k mod b)",
               pair=lambda a, b: check_prop1_ab(a, b)),
    CatalogRow(("prop2",), "Voronoi sums from gap-polynomial root values, Mirimanoff / Apostol-Bernoulli kernels",
               pair=lambda a, b: (check_prop2(a, b, m, n) for m in range(1, PROP2_M_MAX + 1) for n in range(1, PROP2_N_MAX + 1)
                                  if n == 1 or b <= PROP2_B_MAX)),
    CatalogRow(("prop3",), "Dedekind-Carlitz c(q^b, t) from gap polynomials",
               pair=lambda a, b: (check_prop3(a, b),)),
    # one check_prop4 call computes both displays
    CatalogRow(("prop4.R11", "prop4.T11"), "floor-sum polynomial R11 vs its rational form; T11 display as written",
               pair=lambda a, b: check_prop4(a, b)),
    CatalogRow(("prop5",), "generating function of floor(ak/b) from gap-class counts",
               pair=lambda a, b: (check_prop5(a, b),)),
    CatalogRow(("gapvalues",), "gap polynomial at roots of unity in closed form; genus at 1",
               pair=lambda a, b: check_gap_values(a, b)),
    CatalogRow(("prop6.eq7",), "V_{1,1} as a root-of-unity sum plus (a-1)(b-1)^2/4",
               pair=lambda a, b: (check_prop6(a, b),)),
    CatalogRow(("prop7",), "genus of S/d: floor formula = multisection count = brute force",
               semigroup=lambda S, r: (check_prop7(S, d) for d in range(1, r.d_max + 1)
                                       if _prop7_svals(S.ap, d))),
    CatalogRow(("cor510",), "floor-sum polynomial identity swapping the roles of a and b",
               pair=lambda a, b: (check_cor510(a, b),)),
    CatalogRow(("sawtoothpoly",), "sawtooth generating polynomial vs its rational closed form",
               pair=lambda a, b: (check_sawtooth_poly(a, b),)),
)

# the ids run_suite reports under; an identities filter must be a prefix of one
IDENTITY_IDS = tuple(i for row in CATALOG for i in row.ids)


def run_suite(ranges: SuiteRanges = SuiteRanges(), seed: int = 0) -> list:
    """Run the checks of every CATALOG row with a wanted id over the given ranges.

    Every wanted row checks one coprime pair before the next pair is taken,
    then one random semigroup before the next.  Deterministic for a fixed
    seed: the random-semigroup population comes from a seeded PRNG, every
    float check evaluates at fixed sample points, and the returned reports are
    sorted canonically (id, then sorted param items) regardless of the order
    the checks ran in; an id whose params share their names (every pair row's)
    is sorted by the values in name order, which orders it the same way.
    Each report's elapsed_ms is the time since the previous report of the same
    row call, or since the call began, stamped before the identity filter looks
    at it.  A filter in ranges.identities that is a prefix of no id in
    IDENTITY_IDS raises UnknownIdentity; ranges with pairs_max > 0 that give
    the wanted rows no check raise EmptyPlan.
    """
    for f in ranges.identities:
        if not any(i.startswith(f) for i in IDENTITY_IDS):
            raise UnknownIdentity(f"no identity id starts with {f!r}; ids: {', '.join(IDENTITY_IDS)}")
    if ranges.pairs_max <= 0:
        return []

    def want(identity_id: str) -> bool:
        return not ranges.identities or any(identity_id.startswith(f) for f in ranges.identities)

    by_id = defaultdict(list)

    def run(check, *args) -> None:
        last = time.perf_counter()
        for r in check(*args):
            now = time.perf_counter()
            r.elapsed_ms, last = (now - last) * 1e3, now
            by_id[r.identity_id].append(r)

    rows = [row for row in CATALOG if any(want(i) for i in row.ids)]
    pair_checks = [row.pair for row in rows if row.pair]
    for a, b in coprime_pairs(ranges.pairs_max):
        for check in pair_checks:
            run(check, a, b)
    # the seeded semigroups are drawn only if a wanted row checks them
    semigroup_checks = [row.semigroup for row in rows if row.semigroup]
    for S in random_semigroups(ranges.semigroups, random.Random(seed)) if semigroup_checks else ():
        for check in semigroup_checks:
            run(check, S, ranges)
    reports = []
    for i in sorted(filter(want, by_id)):
        names = by_id[i][0].params.keys()
        if names and all(r.params.keys() == names for r in by_id[i]):
            get = itemgetter(*sorted(names))  # one set of names: the values sort as the items do
            reports += sorted(by_id[i], key=lambda r: get(r.params))
        else:
            reports += sorted(by_id[i], key=lambda r: sorted(r.params.items()))
    if not reports:
        raise EmptyPlan(f"no check to run: {ranges} gives the wanted ids no parameters")
    return reports


def summarize(reports) -> dict:
    counts = {}
    for r in reports:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    return counts


# -- report serialization ---------------------------------------------------------


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def report_to_obj(r: IdentityReport, include_timings: bool = False) -> dict:
    obj = {
        "id": r.identity_id,
        "params": dict(sorted(r.params.items())),
        "mode": r.mode,
        "residual": _sig12(r.residual),
        "verdict": r.verdict,
        # wall-clock time is not reproducible; reports are byte-identical by
        # default and carry real timings only on request
        "elapsed_ms": _sig12(r.elapsed_ms) if include_timings else 0.0,
    }
    if r.notes is not None:
        obj["notes"] = r.notes
    return obj


def _json_num(x: float) -> str:
    return repr(x) if isfinite(x) else json.dumps(x)


def _json_pieces(reports, include_timings: bool):
    """reports_to_json one report per piece.  Reports of one shape (id, mode, verdict,
    param keys) share a %-template of elapsed_ms, notes, each param value and residual,
    and a getter of the param values in the template's order."""
    def enc(s):
        return encode_basestring_ascii(s).replace("%", "%%")

    templates = {}
    sep = "[\n  "
    for r in reports:
        shape = (r.identity_id, r.mode, r.verdict, *r.params)
        if shape not in templates:
            order = sorted(r.params)
            fields = ",\n".join(f"      {enc(k)}: %r" for k in order)
            fields = f"{{\n{fields}\n    }}" if order else "{}"
            get = itemgetter(*order) if len(order) > 1 else lambda params, order=order: tuple(map(params.__getitem__, order))
            templates[shape] = get, (
                f'{{\n    "elapsed_ms": %s,\n    "id": {enc(r.identity_id)},\n    "mode": {enc(r.mode)},\n%s    '
                f'"params": {fields},\n    "residual": %s,\n    "verdict": {enc(r.verdict)}\n  }}')
        get, template = templates[shape]
        yield sep + template % (
            _json_num(_sig12(r.elapsed_ms)) if include_timings else "0.0",
            "" if r.notes is None else f'    "notes": {encode_basestring_ascii(r.notes)},\n',
            *get(r.params),
            # a zero residual is written as is, which keeps the sign of -0.0
            repr(float(r.residual)) if not r.residual else _json_num(_sig12(r.residual)),
        )
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _csv_pieces(reports, include_timings: bool):
    yield "id,params,mode,residual,verdict,elapsed_ms,notes\n"
    for r in reports:
        params = ";".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        notes = "" if r.notes is None else r.notes
        if "," in notes or '"' in notes:
            notes = '"' + notes.replace('"', '""') + '"'
        elapsed = f"{r.elapsed_ms:.12g}" if include_timings else "0"
        yield f"{r.identity_id},{params},{r.mode},{r.residual:.12g},{r.verdict},{elapsed},{notes}\n"


def reports_to_json(reports, include_timings: bool = False, file=None) -> str | None:
    """json.dumps([report_to_obj(r) ...], indent=2, sort_keys=True) + "\n", byte
    for byte; an indent makes json.dumps run its pure-Python encoder, so every
    report is written here from a template with its keys in sorted order,
    strings encoded in C.  Given a text file, the text is written there one
    report at a time, never held whole, and None is returned."""
    pieces = _json_pieces(reports, include_timings)
    return "".join(pieces) if file is None else file.writelines(pieces)


def reports_to_csv(reports, include_timings: bool = False, file=None) -> str | None:
    """A header and one line per report, written to a given text file as reports_to_json does."""
    pieces = _csv_pieces(reports, include_timings)
    return "".join(pieces) if file is None else file.writelines(pieces)
