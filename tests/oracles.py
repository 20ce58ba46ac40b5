"""Brute-force reference computations used as independent test oracles.

Nothing here goes through the library's multisection or closed-form code
paths: membership is enumerated directly, root-of-unity sums are evaluated
literally in complex arithmetic.
"""

import cmath
from fractions import Fraction
from itertools import count
from math import factorial, gcd

from sdlab.polyring import BiLaurent
from sdlab.semigroup import NumericalSemigroup


def pair_members(a: int, b: int, bound: int) -> set:
    """All i*a + j*b <= bound with i, j >= 0, by double enumeration."""
    out = set()
    for i in range(bound // a + 1):
        rem = bound - i * a
        for j in range(rem // b + 1):
            out.add(i * a + j * b)
    return out


def pair_gaps(a: int, b: int) -> list:
    bound = a * b  # the largest gap of <a, b> is ab - a - b
    members = pair_members(a, b, bound)
    return [x for x in range(bound + 1) if x not in members]


def coprime_pairs(bmax: int, amin: int) -> list:
    """The coprime pairs (a, b) with amin <= a < b <= bmax, by b and then a."""
    return [(a, b) for b in range(amin + 1, bmax + 1) for a in range(amin, b) if gcd(a, b) == 1]


def closure_members(gens, bound: int) -> set:
    """Members of <gens> up to bound by breadth-first closure under addition."""
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y <= bound and y not in members:
                members.add(y)
                frontier.append(y)
    return members


def closure_gaps(gens) -> list:
    bound = min(gens) * max(gens) + max(gens)
    members = closure_members(gens, bound)
    return [x for x in range(bound + 1) if x not in members]


def apery_by_definition(S, s: int) -> tuple:
    """The least member of each class k mod s, found by scanning the class
    k, k + s, k + 2s, ... upwards with S.contains."""
    return tuple(next(x for x in count(k, s) if S.contains(x)) for k in range(s))


def quotient_by_definition(S, d: int):
    """S/d = {x >= 0 : d*x in S}, with every membership read from S.contains(d*x):
    its least nonzero member m, the least member of each class mod m found by
    scanning the class upwards, and the members of [m, conductor + m] as its
    generators (S itself for d = 1)."""
    if d == 1:
        return S
    m = next(x for x in count(1) if S.contains(d * x))
    ap = tuple(next(x for x in count(k, m) if S.contains(d * x)) for k in range(m))
    conductor = max(ap) - m + 1
    return NumericalSemigroup(tuple(x for x in range(m, conductor + m + 1) if S.contains(d * x)), ap)


def literal_class_avg(terms, n: int, k: int, q: float) -> complex:
    """(1/n) * sum_j e^{-2 pi i jk/n} f(e^{2 pi i j/n} q) evaluated literally."""
    total = 0j
    for j in range(n):
        w = cmath.exp(2j * cmath.pi * j / n)
        phase = cmath.exp(-2j * cmath.pi * j * k / n)
        total += phase * sum(float(c) * (w * q) ** e for e, c in terms)
    return total / n


def _pair_root_values(a: int, b: int, q: complex = 1) -> list:
    """C(eps^j q) for j < b, summed literally over the gaps of <a, b>."""
    gaps = pair_gaps(a, b)
    return [sum(((cmath.exp(2j * cmath.pi * j / b) * q) ** g for g in gaps), 0j) for j in range(b)]


def prop3_dj_sum(a: int, b: int, q: float, t: float) -> complex:
    """(t^{b-1}-1)/(t-1) + (q^b-1)/b * sum_j d_j(q, t) C(eps^j q), literally in
    complex, with d_j(q, t) = sum_{k=1}^{b-1} eps^{-jak} t^{k-1} / q^{ak mod b}."""
    total = 0j
    for j, c in enumerate(_pair_root_values(a, b, q)):
        d = sum(cmath.exp(-2j * cmath.pi * j * a * k / b) * t ** (k - 1) / q ** (a * k % b) for k in range(1, b))
        total += d * c
    return sum(t**k for k in range(b - 1)) + (q**b - 1) / b * total


def prop5_kernel_sum(a: int, b: int, q: float) -> complex:
    """(q^b-1)/b * sum_j C(eps^j) / (eps^{-ja} q - 1), literally in complex."""
    total = 0j
    for j, c in enumerate(_pair_root_values(a, b)):
        total += c / (cmath.exp(-2j * cmath.pi * j * a / b) * q - 1)
    return (q**b - 1) / b * total


def prop6_class_count_form(a: int, b: int) -> Fraction:
    """The root sum of prop6 plus (a-1)(b-1)^2/4, exactly: the coefficients
    1/(eps^{-ja}-1) arise from the power-weighted kernel, so the j-sum is
    sum_k k * (#gaps in class ak mod b) - genus*(b-1)/2."""
    gaps = pair_gaps(a, b)
    counts = [0] * b
    for g in gaps:
        counts[g % b] += 1
    trig = sum(k * counts[a * k % b] for k in range(1, b)) - Fraction(len(gaps) * (b - 1), 2)
    return trig + Fraction((a - 1) * (b - 1) ** 2, 4)


def _sawtooth(x: Fraction) -> Fraction:
    """((x)): 0 at integers, x - floor(x) - 1/2 otherwise."""
    return Fraction(0) if x.denominator == 1 else x - (x.numerator // x.denominator) - Fraction(1, 2)


def dedekind_sawtooth_sum(a: int, b: int) -> Fraction:
    """sum_{k=1}^{b-1} ((k/b)) * ((a*k/b)) — the defining sum, one Fraction per factor."""
    return sum((_sawtooth(Fraction(k, b)) * _sawtooth(Fraction(a * k, b)) for k in range(1, b)), Fraction(0))


def dedekind_kb_form(a: int, b: int) -> Fraction:
    """sum_{k=1}^{b-1} (k/b) * ((a*k/b)) — the second displayed form, exact."""
    return sum((Fraction(k, b) * _sawtooth(Fraction(a * k, b)) for k in range(1, b)), Fraction(0))


def dedekind_root_form(a: int, b: int) -> float:
    """-(1/b) sum_k 1/((eps^{ak}-1)(eps^k-1)) + (b-1)/(4b), literally in complex."""
    total = 0j
    for k in range(1, b):
        ea = cmath.exp(2j * cmath.pi * a * k / b)
        e1 = cmath.exp(2j * cmath.pi * k / b)
        total += 1 / ((ea - 1) * (e1 - 1))
    value = -total / b + (b - 1) / (4 * b)
    return value.real


def dedekind_quotient_form(a: int, b: int) -> float:
    """(1/4b) sum_k (1+eps^k)/(1-eps^k) * (1+eps^{-ak})/(1-eps^{-ak})."""
    total = 0j
    for k in range(1, b):
        e1 = cmath.exp(2j * cmath.pi * k / b)
        ea = cmath.exp(-2j * cmath.pi * a * k / b)
        total += (1 + e1) / (1 - e1) * (1 + ea) / (1 - ea)
    return (total / (4 * b)).real


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def prop2_composition_sums(a: int, b: int, n: int, kernels) -> list:
    """(1/b^n) * sum over compositions (i_0..i_{b-1}) of n of the multinomial
    coefficient times prod_j C(eps^j)^{i_j} times K(eps^{-aW}), W = sum j*i_j,
    for each kernel K.  C(eps^j) is summed literally over the gaps of <a, b>;
    eps^{-aW} is formed as the library forms its roots of unity, so a kernel
    sees bit-identical arguments on both routes.
    """
    gaps = pair_gaps(a, b)
    cj = [sum((cmath.exp(2j * cmath.pi * j * g / b) for g in gaps), 0j) for j in range(b)]
    totals = [0j] * len(kernels)
    for comp in _compositions(n, b):
        coef = factorial(n)
        prod = 1 + 0j
        w = 0
        for j, i in enumerate(comp):
            if i:
                coef //= factorial(i)
                prod *= cj[j] ** i
                w += j * i
        lam = cmath.exp(2j * cmath.pi * ((-a * w) % b) / b)
        for t, kernel in enumerate(kernels):
            totals[t] += coef * prod * kernel(lam)
    return [total / b**n for total in totals]


def long_division(num: dict, den: dict):
    """num / den for {exponent: coeff} dicts by plain long division, top down:
    the quotient dict, its terms in the order they were found, or None when a
    remainder is left.  Each quotient coefficient is c * lead under a lead of
    1 or -1 and Fraction(c) / lead otherwise; the remainder is a dict from
    which an entry that cancels is dropped."""
    top = max(den)
    lead, rem, quo = den[top], dict(num), {}
    if not num:
        return quo
    hi, lo = max(num), min(num) - min(den) + top
    for e in range(hi, lo - 1, -1):
        c = rem.pop(e, 0)
        if c:
            c = quo[e - top] = c * lead if lead in (1, -1) else Fraction(c) / lead
            for k, d in den.items():
                if k != top:
                    s = rem.pop(e + k - top, 0) - c * d
                    if s:
                        rem[e + k - top] = s
    return None if rem else quo


def rt_product_route(kind: str, m: int, n: int, a: int, b: int) -> BiLaurent:
    """R_{m,n} or T_{m,n} as the sum over k of one BiLaurent product per k.

    The q-factor of block k is 1 + q + ... + q^{floor(ak/b)-1} for "R" and
    q^{ak mod b} * (1 + q^b + ... + q^{b(floor(ak/b)-1)}) for "T"; the
    t-factor is 1 + t + ... + t^{k-1}.  Each block is added to the running
    total, whose first-appearance term order is the order the library keeps.
    """
    total = BiLaurent()
    for k in range(1, b):
        fl, pik = divmod(a * k, b)
        if kind == "R":
            q_factor = BiLaurent({(i, 0): 1 for i in range(fl)})
        else:
            q_factor = BiLaurent({(b * i + pik, 0): 1 for i in range(fl)})
        t_factor = BiLaurent({(0, j): 1 for j in range(k)})
        total = total + q_factor**n * t_factor**m
    return total
