"""Dedekind sums and the floor-sum/root-of-unity objects surrounding them.

Covers the classical sum s(a, b), Voronoi power sums V_{m,n}, the Zolotarev
permutation k -> a*k mod b, Dedekind-Carlitz polynomials, their bivariate
relatives, and Mirimanoff / Apostol-Bernoulli polynomials.  Exact rational
arithmetic throughout except the cotangent route and complex arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import require_coprime
from .polyring import BiLaurent, LaurentPoly, geom_sum, monomial


def zolotarev(a: int, b: int) -> tuple[int, ...]:
    """The permutation k -> a*k mod b of {0, ..., b-1}, for coprime a, b, as the
    tuple of images: a*k = b*floor(a*k/b) + images[k]."""
    require_coprime(a, b)
    return tuple(a * k % b for k in range(b))


def voronoi_sum(a: int, b: int, m: int, n: int) -> int:
    """V_{m,n}(a, b) = sum_{k=1}^{b-1} k^m * floor(a*k/b)^n, exactly."""
    require_coprime(a, b)
    if m < 0 or n < 0:
        raise ValueError("exponents must be >= 0")
    return sum(k**m * (a * k // b) ** n for k in range(1, b))


def dedekind_sum(a: int, b: int, route: str = "sawtooth"):
    """Classical Dedekind sum s(a, b) = sum_{k=1}^{b-1} ((k/b)) ((a*k/b)).

    Routes:
      sawtooth  - the defining sum, exact Fraction: for 0 < k < b neither k/b
                  nor ak/b is an integer, so term k is
                  (2k - b)(2(ak mod b) - b) / (4b^2), and the numerators are
                  summed as integers under one division.
      voronoi   - -V_{1,1}(a,b)/b + (b-1)/4 * (4a/3 - 2a/(3b) - 1), exact Fraction.
      cotangent - (1/4b) * sum cot(pi*k/b) cot(pi*a*k/b), float.
    """
    require_coprime(a, b)
    if route == "sawtooth":
        return Fraction(sum((2 * k - b) * (2 * (a * k % b) - b) for k in range(1, b)), 4 * b * b)
    if route == "voronoi":
        correction = Fraction(b - 1, 4) * (Fraction(4 * a, 3) - Fraction(2 * a, 3 * b) - 1)
        return -Fraction(voronoi_sum(a, b, 1, 1), b) + correction
    if route == "cotangent":
        total = 0.0
        for k in range(1, b):
            t1 = math.pi * k / b
            t2 = math.pi * a * k / b
            total += (math.cos(t1) / math.sin(t1)) * (math.cos(t2) / math.sin(t2))
        return total / (4 * b)
    raise ValueError(f"unknown route {route!r}")


# -- Mirimanoff and Apostol-Bernoulli polynomials -------------------------------


def mirimanoff(lam, m: int, b: int):
    """M_{b-1}(lam, m) = sum_{k=0}^{b-1} k^m * lam^k, with 0^0 = 1.

    Exact Fraction for int/Fraction lam, complex for complex lam.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if b < 1:
        raise ValueError("b must be >= 1")
    if isinstance(lam, complex):
        total, power = 0j, 1 + 0j
    else:
        lam = Fraction(lam)
        total, power = Fraction(0), Fraction(1)
    for k in range(b):
        total += (k**m) * power
        power *= lam
    return total


@lru_cache(maxsize=64)
def _bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n with B_1 = -1/2 (generating function t/(e^t - 1))."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * out[j]
        out.append(-acc / (m + 1))
    return tuple(out)


def _bernoulli_poly(k: int, q):
    """The classical Bernoulli polynomial B_k(q) = sum_i C(k, i) B_i q^{k-i}."""
    numbers = _bernoulli_numbers(k)
    return sum(math.comb(k, i) * numbers[i] * q ** (k - i) for i in range(k + 1))


def apostol_bernoulli(k: int, q, lam):
    """B_k(q, lam): coefficients of t*e^{tq} / (lam*e^t - 1).

    For lam != 1 the values follow the recurrence
        (lam - 1) B_k + lam * sum_{i<k} C(k, i) B_i = k q^{k-1},  B_0 = 0,
    exact for rational inputs.  lam = 1 dispatches to the classical Bernoulli
    polynomial B_k(q) = sum_i C(k, i) B_i q^{k-i}.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if lam == 1:
        return _bernoulli_poly(k, q)
    return apostol_bernoulli_values(k, q, lam)[k]


def apostol_bernoulli_values(k: int, q, lam) -> tuple:
    """(B_0(q, lam), ..., B_k(q, lam)) from one run of apostol_bernoulli's
    recurrence: its n-th value does not depend on the target k, so entry n is
    apostol_bernoulli(n, q, lam), bit for bit, for every n <= k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if lam == 1:
        return tuple(_bernoulli_poly(n, q) for n in range(k + 1))
    vals = [Fraction(0) if not isinstance(lam, complex) else 0j]
    for n in range(1, k + 1):
        rhs = n * q ** (n - 1)
        acc = rhs - lam * sum(math.comb(n, i) * vals[i] for i in range(n))
        vals.append(acc / (lam - 1))
    return tuple(vals)


def mirimanoff_vs_apostol_check(lam, m: int, b: int) -> float:
    """Residual of M_{b-1}(lam, m) = (lam^b B_{m+1}(b, lam) - B_{m+1}(0, lam)) / (m+1).

    Exact (residual 0.0) for rational lam != 1; float residual for complex lam.
    """
    if lam == 1:
        raise ValueError("lam must differ from 1")
    lhs = mirimanoff(lam, m, b)
    rhs = (lam**b * apostol_bernoulli(m + 1, b, lam) - apostol_bernoulli(m + 1, 0, lam)) / (m + 1)
    return float(abs(lhs - rhs))


# -- Dedekind-Carlitz polynomials and relatives ---------------------------------


def carlitz_poly(a: int, b: int) -> BiLaurent:
    """c(q, t; a, b) = sum_{k=1}^{b-1} q^{floor(a*k/b)} t^{k-1}."""
    require_coprime(a, b)
    return BiLaurent._raw({(a * k // b, k - 1): 1 for k in range(1, b)})


def rt_poly(kind: str, m: int, n: int, a: int, b: int) -> BiLaurent:
    """The bivariate floor-sum polynomials specializing to Voronoi sums at q = t = 1.

    kind "R": sum_k ((q^{floor(ak/b)} - 1)/(q - 1))^n ((t^k - 1)/(t - 1))^m.
    kind "T": same with the q-factor (q^{ak} - q^{pi(k)})/(q^b - 1), which equals
    q^{pi(k)} * (1 + q^b + ... + q^{b(floor(ak/b)-1)}) because ak = b*floor(ak/b) + pi(k).

    One dict holds the sum: block k adds the outer product of geom_sum(floor(ak/b))**n
    in q and geom_sum(k)**m in t.  T's q-factor is R's at q^b times q^{pi(k)}, so its
    n-th power moves R's exponent e to b*e + n*pi(k).  Terms enter in the powers' stored
    order, which is the order in which `BiLaurent.evaluate` sums them.
    """
    require_coprime(a, b)
    if m < 0 or n < 0:
        raise ValueError("exponents must be >= 0")
    if kind not in ("R", "T"):
        raise ValueError("kind must be 'R' or 'T'")
    stride, lift = (b, n) if kind == "T" else (1, 0)
    terms: dict[tuple[int, int], int] = {}
    for k in range(1, b):
        fl, pik = divmod(a * k, b)
        t_terms = (geom_sum(k) ** m)._terms.items()
        for e, cq in (geom_sum(fl) ** n)._terms.items():
            eq = stride * e + lift * pik
            for et, ct in t_terms:
                key = (eq, et)
                terms[key] = terms.get(key, 0) + cq * ct
    return BiLaurent._raw(terms)


def carlitz_floor_sum(a: int, b: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Both sides of sum_{k=1}^{b-1} q^{floor(ak/b)}
    = (b-1) q^{a-1} - (q-1) * sum_{k=1}^{a-1} floor(bk/a) q^{k-1}."""
    require_coprime(a, b)
    lhs = LaurentPoly((a * k // b, 1) for k in range(1, b))
    correction = LaurentPoly._raw({k - 1: fl for k in range(1, a) if (fl := b * k // a)})
    rhs = monomial(a - 1, b - 1) - correction.shift(1) + correction
    return lhs, rhs


def carlitz_sawtooth_poly(a: int, b: int) -> LaurentPoly:
    """sum_{k=0}^{b-1} (a*k/b - floor(a*k/b) - 1/2) q^k, exact rational coefficients.

    The coefficient of q^k is (2*(a*k mod b) - b)/(2b), one Fraction; at even b one is 0."""
    require_coprime(a, b)
    return LaurentPoly._raw({k: Fraction(c, 2 * b) for k in range(b) if (c := 2 * (a * k % b) - b)})
