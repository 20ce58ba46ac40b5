"""Sparse exact Laurent-polynomial arithmetic in one and two variables.

Polynomials are stored as maps from (possibly negative) integer exponents to
nonzero coefficients.  In both classes a coefficient is an int or a
`fractions.Fraction` (ints stay unwrapped, which spares the Fraction gcd on
the mostly integer ring operations), so every ring operation here is exact;
floating point enters only when a polynomial is evaluated at a float or
complex point, such as a root of unity.  Both classes share one sparse core,
`_Sparse`, with its coefficient rule; each keeps its own product kernel and
the operations that read its exponents.

The exact counterpart of averaging f(e^{2*pi*i*j/n} q) over j is multisection:
picking out the terms whose exponents lie in one residue class mod n.  That
equivalence is what `LaurentPoly.multisection` implements, and it is the
workhorse the identity checkers build on.
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import InexactDivision


@lru_cache(maxsize=256)
def roots_of_unity(n: int) -> tuple[complex, ...]:
    """All n-th roots of unity, indexed by exponent: roots_of_unity(n)[r] = e^{2*pi*i*r/n}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(cmath.exp(2j * cmath.pi * r / n) for r in range(n))


class _Sparse:
    """Map from exponent key to nonzero int or Fraction coefficient: the ring
    core of both classes.

    A subclass declares the key of its constant term (`_ONE_KEY`) and how a
    key is checked (`_key`, which refuses a non-integer exponent with
    TypeError).  It writes its own `__mul__`: adding exponents is the inner
    loop of every product, so the kernel is not routed through a per-term hook.
    """

    __slots__ = ("_terms",)
    _COEFFS = (int, Fraction)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        coeffs, check_key = self._COEFFS, self._key
        data = {}
        for key, c in items:
            if not isinstance(c, coeffs):
                self._check_coeff(c)  # raises
            key = check_key(key)
            if c:
                data[key] = data.get(key, 0) + c
        self._terms = {k: c for k, c in data.items() if c}

    @classmethod
    def _check_coeff(cls, c) -> None:
        if not isinstance(c, cls._COEFFS):
            names = ", ".join(t.__name__ for t in cls._COEFFS)
            raise TypeError(f"{cls.__name__} coefficient must be one of {names}, got {type(c).__name__}")

    @classmethod
    def _raw(cls, terms: dict):
        """Wrap a dict that holds no zero coefficient, without copying it.  Library
        code that builds such a dict by construction (unique keys, coefficients
        known to be valid) wraps it here; the public constructors validate."""
        p = cls.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def _term(cls, key, c):
        """The one-term polynomial c * key, its key and coefficient checked as the constructor would."""
        cls._check_coeff(c)
        key = cls._key(key)
        return cls._raw({key: c} if c else {})

    # -- inspection -------------------------------------------------------

    def items(self):
        """Terms as (key, coefficient) pairs, keys ascending."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self._terms == other._terms
        if isinstance(other, self._COEFFS):
            return self._terms == ({self._ONE_KEY: other} if other else {})
        return NotImplemented

    __hash__ = None

    # -- ring operations --------------------------------------------------

    def _combine(self, other, op):
        """self op other, op being operator.add or operator.sub, in one pass over other's terms."""
        if isinstance(other, self._COEFFS):
            other = self._raw({self._ONE_KEY: other})
        elif not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = op(out.get(k, 0), c)
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return self._raw(out)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return self._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, c):
        """Product with the scalar c, which the caller has checked against `_COEFFS`."""
        return self._raw({k: c * v for k, v in self._terms.items()} if c else {})

    def __pow__(self, n: int):
        """Binary powering from the lowest set bit's power, so p**1 makes no product and p**2 one."""
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result, p = None, self
        while n:
            if n & 1:
                result = p if result is None else result * p
            n >>= 1
            if n:
                p = p * p
        return self._raw({self._ONE_KEY: 1}) if result is None else result

    # -- display ------------------------------------------------------------

    def __str__(self):
        return _render(self.items())

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())!r})"


class LaurentPoly(_Sparse):
    """Univariate Laurent polynomial with exact rational coefficients.

    >>> f = LaurentPoly({1: 1, 2: 1, 4: 1, 7: 1})
    >>> print(f * monomial(-1))
    1 + q + q^3 + q^6
    >>> print(f.multisection(5)[2])
    q^2 + q^7
    """

    __slots__ = ()
    _ONE_KEY = 0
    _key = operator.index

    # -- inspection -------------------------------------------------------

    def support(self):
        return sorted(self._terms)

    def coeff(self, e: int):
        return self._terms.get(e, 0)

    def degree(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def valuation(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self._terms)

    # -- ring operations --------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, self._COEFFS):
            return self._scale(other)
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
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k (k may be negative)."""
        return LaurentPoly._raw({e + k: c for e, c in self._terms.items()})

    # -- multisection and evaluation ---------------------------------------

    def multisection(self, n: int) -> tuple["LaurentPoly", ...]:
        """All n class parts in one pass: part r holds the terms whose exponents
        are congruent to r mod n, in the order they appear in self.

        Part r is the exact value of (1/n) * sum_j e^{-2*pi*i*jr/n} f(e^{2*pi*i*j/n} q):
        averaging over the n-th roots of unity kills every term whose exponent
        is not congruent to r mod n and keeps the rest untouched, so no
        cyclotomic arithmetic is required.
        """
        if n < 1:
            raise ValueError("modulus must be >= 1")
        parts = [{} for _ in range(n)]
        for e, c in self._terms.items():
            parts[e % n][e] = c
        return tuple(LaurentPoly._raw(part) for part in parts)

    def evaluate(self, x):
        """Value at x; exact for Fraction x, complex for complex x."""
        return sum(c * x**e for e, c in self._terms.items())

    def eval_root_of_unity(self, n: int, j: int) -> complex:
        """Value at the n-th root of unity e^{2*pi*i*j/n}."""
        roots = roots_of_unity(n)
        return sum((float(c) * roots[(j * e) % n] for e, c in self._terms.items()), 0j)

    # -- division ----------------------------------------------------------

    def divexact(self, other: "LaurentPoly | int | Fraction") -> "LaurentPoly":
        """Exact quotient self / other; raises InexactDivision on a remainder.

        A nonzero int or Fraction `other` divides as the constant polynomial.
        Sparse long division from the top down: each quotient term subtracts
        itself times the divisor's other terms from a dict remainder, so the
        cost is (span of the quotient) x (terms of the divisor).
        Under a leading coefficient of 1 or -1, int inputs give int quotients;
        other leads divide as Fractions (c / lead on two ints is a float).
        """
        if isinstance(other, self._COEFFS):
            other = LaurentPoly._raw({0: other} if other else {})
        elif not isinstance(other, LaurentPoly):
            raise TypeError(f"cannot divide a LaurentPoly by {type(other).__name__}")
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return ZERO
        top = other.degree()
        hi, lo = self.degree(), self.valuation() - other.valuation() + top
        if hi < lo:
            raise InexactDivision("quotient would not be a polynomial")
        lead, rem, quo = other._terms[top], dict(self._terms), {}
        unit = lead in (1, -1)
        rest = [(e - top, -d) for e, d in other._terms.items() if e != top]
        for e in range(hi, lo - 1, -1):  # e: the remainder's leading exponent
            c = rem.pop(e, 0)
            if c:
                c = quo[e - top] = c * lead if unit else Fraction(c) / lead
                for k, d in rest:
                    s = rem.pop(e + k, 0) + c * d
                    if s:
                        rem[e + k] = s
        if rem:
            raise InexactDivision("nonzero remainder")
        return LaurentPoly._raw(quo)


def _render(items) -> str:
    if not items:
        return "0"
    parts = []
    for key, c in items:
        exps = key if isinstance(key, tuple) else (key,)
        m = "*".join(var if e == 1 else f"{var}^{e}" for var, e in zip("qt", exps) if e)
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
    return parts[0] + "".join(f" - {term[1:]}" if term.startswith("-") else f" + {term}" for term in parts[1:])


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


def monomial(e: int, c=1) -> LaurentPoly:
    return LaurentPoly._term(e, c)


def geom_sum(m: int) -> LaurentPoly:
    """(q^m - 1)/(q - 1) = 1 + q + ... + q^{m-1}; m = 0 gives 0."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return LaurentPoly._raw(dict.fromkeys(range(m), 1))


class BiLaurent(_Sparse):
    """Bivariate Laurent polynomial in (q, t).

    Keys are (q-exponent, t-exponent) pairs; coefficients are exact, as in
    `LaurentPoly`.
    """

    __slots__ = ()
    _ONE_KEY = (0, 0)

    @staticmethod
    def _key(key):
        eq, et = key
        return operator.index(eq), operator.index(et)

    def coeff(self, eq: int, et: int):
        return self._terms.get((eq, et), 0)

    def __mul__(self, other):
        if isinstance(other, self._COEFFS):
            return self._scale(other)
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
        return BiLaurent._raw(out)

    __rmul__ = __mul__

    def shift(self, dq: int, dt: int) -> "BiLaurent":
        """Multiply by q^dq * t^dt."""
        return BiLaurent._raw({(eq + dq, et + dt): c for (eq, et), c in self._terms.items()})

    def scale_q(self, m: int) -> "BiLaurent":
        """Substitute q -> q^m (m >= 1)."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return BiLaurent._raw({(eq * m, et): c for (eq, et), c in self._terms.items()})

    def evaluate(self, qv, tv):
        """Value at (qv, tv), summed in term order."""
        return sum(c * qv**eq * tv**et for (eq, et), c in self._terms.items())


def bi_monomial(eq: int, et: int, c=1) -> BiLaurent:
    return BiLaurent._term((eq, et), c)


def from_t(p: LaurentPoly) -> BiLaurent:
    """Embed a univariate polynomial, read in the variable t, into (q, t)."""
    return BiLaurent._raw({(0, e): c for e, c in p.items()})
