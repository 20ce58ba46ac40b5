"""Sparse exact Laurent-polynomial arithmetic in one and two variables.

Polynomials are stored as maps from (possibly negative) integer exponents to
nonzero coefficients.  Univariate coefficients are always `fractions.Fraction`,
so every ring operation here is exact; the only floating point in this module
is root-of-unity evaluation, which returns complex numbers.  Bivariate
polynomials additionally accept complex coefficients, needed when a root of
unity appears as a scalar inside a coefficient.

The exact counterpart of averaging f(e^{2*pi*i*j/n} q) over j is multisection:
picking out the terms whose exponents lie in one residue class mod n.  That
equivalence is what `LaurentPoly.multisection` implements, and it is the
workhorse the identity checkers build on.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache

from .errors import InexactDivision


def _coerce_exact(c):
    # ints are exact rationals too; keeping them unwrapped avoids Fraction
    # gcd overhead on the (overwhelmingly integer) ring operations
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"exact coefficient must be int or Fraction, got {type(c).__name__}")


def _coerce_mixed(c):
    if isinstance(c, (int, Fraction, complex)):
        return c
    raise TypeError(f"coefficient must be int, Fraction or complex, got {type(c).__name__}")


@lru_cache(maxsize=None)
def roots_of_unity(n: int) -> tuple[complex, ...]:
    """All n-th roots of unity, indexed by exponent: roots_of_unity(n)[r] = e^{2*pi*i*r/n}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(cmath.exp(2j * cmath.pi * r / n) for r in range(n))


class LaurentPoly:
    """Univariate Laurent polynomial with exact rational coefficients.

    >>> f = LaurentPoly({1: 1, 2: 1, 4: 1, 7: 1})
    >>> print(f * monomial(-1))
    1 + q + q^3 + q^6
    >>> print(f.multisection(5, 2))
    q^2 + q^7
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        data = {}
        for e, c in items:
            c = _coerce_exact(c)
            if c:
                e = int(e)
                data[e] = data.get(e, 0) + c
        self._terms = {e: c for e, c in data.items() if c}

    # -- inspection -------------------------------------------------------

    def items(self):
        """Terms as (exponent, coefficient) pairs, exponents ascending."""
        return sorted(self._terms.items())

    def support(self):
        return sorted(self._terms)

    def coeff(self, e: int):
        return self._terms.get(e, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def valuation(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self._terms)

    def l1_norm(self) -> Fraction:
        return sum((abs(c) for c in self._terms.values()), Fraction(0))

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == constant(other)
        return NotImplemented

    __hash__ = None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentPoly) else -_coerce_exact(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce_exact(other)
            if not c:
                return ZERO
            return _raw({e: c * v for e, v in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, object] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, ONE)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k (k may be negative)."""
        return _raw({e + k: c for e, c in self._terms.items()})

    # -- multisection and evaluation ---------------------------------------

    def multisection(self, n: int, r: int) -> "LaurentPoly":
        """Sub-polynomial of the terms whose exponents are congruent to r mod n.

        This is the exact value of (1/n) * sum_j e^{-2*pi*i*jr/n} f(e^{2*pi*i*j/n} q):
        averaging over the n-th roots of unity kills every term whose exponent
        is not congruent to r mod n and keeps the rest untouched, so no
        cyclotomic arithmetic is required.
        """
        if n < 1:
            raise ValueError("modulus must be >= 1")
        r %= n
        return _raw({e: c for e, c in self._terms.items() if e % n == r})

    def evaluate(self, x):
        """Value at x; exact for Fraction x, complex for complex x."""
        return sum(c * x**e for e, c in self._terms.items())

    def eval_root_of_unity(self, n: int, j: int) -> complex:
        """Value at the n-th root of unity e^{2*pi*i*j/n}."""
        roots = roots_of_unity(n)
        return sum((float(c) * roots[(j * e) % n] for e, c in self._terms.items()), 0j)

    def eval_root_scaled(self, n: int, j: int, x) -> complex:
        """Value at e^{2*pi*i*j/n} * x for real or complex x != 0."""
        roots = roots_of_unity(n)
        return sum((float(c) * roots[(j * e) % n] * x**e for e, c in self._terms.items()), 0j)

    # -- division ----------------------------------------------------------

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other; raises InexactDivision on a remainder."""
        if not isinstance(other, LaurentPoly) or other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return ZERO
        fv, gv = self.valuation(), other.valuation()
        num = _dense(self._terms, fv, self.degree())
        den = _dense(other._terms, gv, other.degree())
        n, m = len(num) - 1, len(den) - 1
        if n < m:
            raise InexactDivision("quotient would not be a polynomial")
        quo = [Fraction(0)] * (n - m + 1)
        lead = den[m]
        for i in range(n - m, -1, -1):
            c = num[i + m] / lead
            if c:
                quo[i] = c
                for j, d in enumerate(den):
                    if d:
                        num[i + j] -= c * d
        if any(num):
            raise InexactDivision("nonzero remainder")
        shift = fv - gv
        return _raw({i + shift: c for i, c in enumerate(quo) if c})

    # -- serialization and display ------------------------------------------

    def to_terms(self) -> list:
        """JSON-ready term list [[exponent, "num/den"], ...], exponents ascending."""
        return [[e, f"{c.numerator}/{c.denominator}"] for e, c in self.items()]

    @classmethod
    def from_terms(cls, terms) -> "LaurentPoly":
        return cls((int(e), Fraction(c)) for e, c in terms)

    def __str__(self):
        return _render(self.items(), lambda e: _pow_str("q", e))

    def __repr__(self):
        return f"LaurentPoly({dict(self.items())!r})"


def _dense(terms: dict, lo: int, hi: int) -> list:
    out = [Fraction(0)] * (hi - lo + 1)
    for e, c in terms.items():
        out[e - lo] = Fraction(c)
    return out


def _power(p, n: int, one):
    """p**n by binary powering; squares only while bits of n remain."""
    if n < 0:
        raise ValueError("negative powers are not defined for polynomials")
    result = one
    while n:
        if n & 1:
            result = result * p
        n >>= 1
        if n:
            p = p * p
    return result


def _raw(terms: dict) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = terms
    return p


def _pow_str(var: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}"


def _render(items, mono) -> str:
    if not items:
        return "0"
    parts = []
    for key, c in items:
        m = mono(key) if not isinstance(key, tuple) else mono(*key)
        if isinstance(c, complex):
            cs = f"({c:.6g})"
        else:
            cs = str(c)
        if m == "":
            term = cs
        elif cs == "1":
            term = m
        elif cs == "-1":
            term = f"-{m}"
        else:
            term = f"{cs}*{m}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


def constant(c) -> LaurentPoly:
    return LaurentPoly({0: c})


def monomial(e: int, c=1) -> LaurentPoly:
    return LaurentPoly({e: c})


def geom_sum(m: int, step: int = 1) -> LaurentPoly:
    """(v^m - 1)/(v - 1) = 1 + v + ... + v^{m-1} with v = q^step; m = 0 gives 0."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return LaurentPoly({i * step: 1 for i in range(m)})


def rational_eq(fnum: LaurentPoly, fden: LaurentPoly, gnum: LaurentPoly, gden: LaurentPoly) -> bool:
    """Equality of fnum/fden and gnum/gden as rational functions (cross-multiplied)."""
    if fden.is_zero() or gden.is_zero():
        raise ValueError("denominator must be nonzero")
    return fnum * gden == gnum * fden


class BiLaurent:
    """Bivariate Laurent polynomial in (q, t).

    Keys are (q-exponent, t-exponent) pairs.  Coefficients are Fractions in
    exact work and may be complex where a root of unity enters a coefficient
    (see dedekind.dj_poly).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        data = {}
        for key, c in items:
            c = _coerce_mixed(c)
            if c:
                eq, et = key
                key = (int(eq), int(et))
                data[key] = data.get(key, 0) + c
        self._terms = {k: c for k, c in data.items() if c}

    # -- inspection -------------------------------------------------------

    def items(self):
        return sorted(self._terms.items())

    def coeff(self, eq: int, et: int):
        return self._terms.get((eq, et), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_exact(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self._terms.values())

    def l1_norm(self):
        return sum(abs(c) for c in self._terms.values())

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, BiLaurent):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == ({} if not other else {(0, 0): _coerce_exact(other)})
        return NotImplemented

    __hash__ = None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiLaurent({(0, 0): other})
        if not isinstance(other, BiLaurent):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _braw(out)

    __radd__ = __add__

    def __neg__(self):
        return _braw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiLaurent({(0, 0): other})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, complex)):
            c = _coerce_mixed(other)
            if not c:
                return BI_ZERO
            return _braw({k: c * v for k, v in self._terms.items()})
        if not isinstance(other, BiLaurent):
            return NotImplemented
        out: dict[tuple[int, int], object] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                k = (a1 + a2, b1 + b2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return _braw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, BI_ONE)

    def shift(self, dq: int, dt: int) -> "BiLaurent":
        """Multiply by q^dq * t^dt."""
        return _braw({(eq + dq, et + dt): c for (eq, et), c in self._terms.items()})

    def scale_q(self, m: int) -> "BiLaurent":
        """Substitute q -> q^m (m >= 1)."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return _braw({(eq * m, et): c for (eq, et), c in self._terms.items()})

    def scale_t(self, m: int) -> "BiLaurent":
        if m < 1:
            raise ValueError("m must be >= 1")
        return _braw({(eq, et * m): c for (eq, et), c in self._terms.items()})

    def evaluate(self, qv, tv):
        return sum(c * qv**eq * tv**et for (eq, et), c in self._terms.items())

    # -- serialization and display ------------------------------------------

    def to_terms(self) -> list:
        out = []
        for (eq, et), c in self.items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError("only exact bivariate polynomials serialize to terms")
            out.append([eq, et, f"{c.numerator}/{c.denominator}"])
        return out

    @classmethod
    def from_terms(cls, terms) -> "BiLaurent":
        return cls(((int(eq), int(et)), Fraction(c)) for eq, et, c in terms)

    def __str__(self):
        def mono(eq, et):
            qs, ts = _pow_str("q", eq), _pow_str("t", et)
            return f"{qs}*{ts}" if qs and ts else qs + ts

        return _render(self.items(), mono)

    def __repr__(self):
        return f"BiLaurent({dict(self.items())!r})"


def _braw(terms: dict) -> BiLaurent:
    p = BiLaurent.__new__(BiLaurent)
    p._terms = terms
    return p


BI_ZERO = BiLaurent()
BI_ONE = BiLaurent({(0, 0): 1})


def bi_monomial(eq: int, et: int, c=1) -> BiLaurent:
    return BiLaurent({(eq, et): c})


def from_q(p: LaurentPoly) -> BiLaurent:
    """Embed a univariate polynomial in q into (q, t)."""
    return BiLaurent({(e, 0): c for e, c in p.items()})


def from_t(p: LaurentPoly) -> BiLaurent:
    """Embed a univariate polynomial, read in the variable t, into (q, t)."""
    return BiLaurent({(0, e): c for e, c in p.items()})


def bi_geom_sum(m: int, var: str = "q", step: int = 1) -> BiLaurent:
    """Bivariate 1 + v + ... + v^{m-1} with v = q^step or t^step."""
    g = geom_sum(m, step)
    if var == "q":
        return from_q(g)
    if var == "t":
        return from_t(g)
    raise ValueError("var must be 'q' or 't'")
