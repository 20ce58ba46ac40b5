#!/usr/bin/env python3
"""Tour of the Dedekind-sum layer.

The classical sum s(a, b) has many equivalent faces: a sawtooth sum, a
cotangent sum, and a floor-sum (Voronoi) expression.  Around it live the
Zolotarev permutation, Dedekind-Carlitz polynomials, and the Mirimanoff /
Apostol-Bernoulli polynomials.  This script computes each object a few ways
and shows the agreements.

Run: python demos/dedekind_sums.py
"""

from fractions import Fraction

from sdlab import (
    apostol_bernoulli,
    carlitz_floor_sum,
    carlitz_poly,
    carlitz_sawtooth_poly,
    dedekind_sum,
    mirimanoff,
    mirimanoff_vs_apostol_check,
    roots_of_unity,
    rt_poly,
    voronoi_sum,
    zolotarev,
)


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("One sum, three routes")
for a, b in ((1, 3), (3, 5), (5, 7), (7, 12)):
    exact = dedekind_sum(a, b, "sawtooth")
    vor = dedekind_sum(a, b, "voronoi")
    cot = dedekind_sum(a, b, "cotangent")
    print(f"s({a},{b}) = {exact!s:>6} (sawtooth) = {vor!s:>6} (voronoi) ~ {cot:+.12f} (cotangent)")

show("Reciprocity")
a, b = 5, 7
lhs = dedekind_sum(a, b) + dedekind_sum(b, a)
rhs = Fraction(-1, 4) + (Fraction(a, b) + Fraction(b, a) + Fraction(1, a * b)) / 12
print(f"s({a},{b}) + s({b},{a}) = {lhs} = -1/4 + (a/b + b/a + 1/ab)/12 = {rhs}")

show("Zolotarev permutation and Voronoi sums")
perm = zolotarev(3, 5)
print(f"k -> 3k mod 5:  {list(perm)}")
print(f"V_11(3,5) = sum k*floor(3k/5) = {voronoi_sum(3, 5, 1, 1)}")
print(f"V_21(3,5) = sum k^2*floor(3k/5) = {voronoi_sum(3, 5, 2, 1)}")

show("Dedekind-Carlitz polynomial and bivariate relatives")
print(f"c(q,t;3,5) = {carlitz_poly(3, 5)}")
r11 = rt_poly('R', 1, 1, 3, 5)
t11 = rt_poly('T', 1, 1, 3, 5)
print(f"R_11(q,t;3,5) = {r11}")
print(f"both specialize to V_11 at q=t=1: R -> {r11.evaluate(1, 1)}, T -> {t11.evaluate(1, 1)}")

show("Floor-sum polynomial identity (second argument swap)")
lhs_poly, rhs_poly = carlitz_floor_sum(3, 5)
print(f"sum q^floor(3k/5) = {lhs_poly}")
print(f"(b-1) q^(a-1) - (q-1) sum floor(5k/3) q^(k-1) = {rhs_poly}")
print(f"equal: {lhs_poly == rhs_poly}")
print(f"sawtooth generating polynomial (3,5): {carlitz_sawtooth_poly(3, 5)}")

show("Mirimanoff vs Apostol-Bernoulli")
print(f"M_4(-1, 2) = 0 - 1 + 4 - 9 + 16 = {mirimanoff(Fraction(-1), 2, 5)}")
print(f"B_1(q, lam) at lam=3: {apostol_bernoulli(1, 0, Fraction(3))} (= 1/(lam-1))")
print(f"B_1(q, 1) classical at q=0: {apostol_bernoulli(1, 0, 1)} (= q - 1/2)")
res = mirimanoff_vs_apostol_check(Fraction(-1), 2, 5)
print(f"relation residual at lam=-1, m=2, b=5 (exact route): {res}")
lam = roots_of_unity(7)[2]
print(f"relation residual at a 7th root of unity, m=3:   {mirimanoff_vs_apostol_check(lam, 3, 7):.3e}")
