#!/usr/bin/env python3
"""Tour of the semigroup layer: gaps, Apery sets, and the polynomial chain.

A numerical semigroup generated by coprime a, b misses finitely many
nonnegative integers (its gaps).  The generating function of the gaps ties
the semigroup to the Alexander polynomial of the (a, b) torus knot, and the
same data reappears as floor sums over Apery sets.  This script walks the
chain for a couple of small semigroups.

Run: python demos/semigroups_and_alexander.py
"""

from sdlab import (
    ONE,
    NumericalSemigroup,
    alexander_closed_form,
    monomial,
    torus_gaps_mordell,
    torus_semigroup,
)


def show(title):
    print()
    print(title)
    print("-" * len(title))


a, b = 3, 5
S = torus_semigroup(a, b)

show(f"The semigroup <{a}, {b}>")
print(f"members up to 12: {S.members(12)}")
print(f"gaps:             {list(S.gaps)}")
print(f"frobenius number: {S.frobenius}")
print(f"genus:            {S.genus}  (closed form (a-1)(b-1)/2 = {(a - 1) * (b - 1) // 2})")
print(f"closed-form gaps: {torus_gaps_mordell(a, b)}  (no enumeration needed)")

show("Apery sets: least member in each residue class")
ap = S.apery(b)
print(f"Ap_{b} = {list(ap)}   (as a set: multiples of {a} up to {(b - 1) * a})")
print(f"largest element minus {b} recovers the frobenius number: {max(ap) - b}")

show("Gap polynomial and the Alexander polynomial")
C = S.gap_poly()
A = S.semigroup_poly()
print(f"C(q) = {C}")
print(f"A(q) = 1 - (1-q) C(q) = {A}")
print(f"closed form (1-q^ab)(1-q)/((1-q^a)(1-q^b)) = {alexander_closed_form(a, b)}")
n = a * b
H = S.hilbert_trunc(n)
print(f"and (1-q) H(q) + q^{n + 1} gives the same: {(ONE - monomial(1)) * H + monomial(n + 1) == A}")

show("The gap polynomial from Apery blocks")
print(f"reassembled class by class: {S.gap_poly_from_apery(b)}")
print(f"equals the direct gap sum:  {S.gap_poly_from_apery(b) == C}")

show("Quotients S/d = {s : d*s in S}")
for d in (1, 2, 7):
    Q = S.quotient(d)
    print(
        f"S/{d}: gaps {list(Q.gaps)!s:12} genus {Q.genus}"
        f"  [multisection count: {S.genus_quotient_trig(d)},"
        f" floor sum at s=3: {S.genus_quotient_apery(d, 3) if S.contains(3 * d) else '-'}]"
    )

show("A three-generator example")
T = NumericalSemigroup.from_generators([4, 7, 9])
print(f"<4, 7, 9>: gaps {list(T.gaps)}, frobenius {T.frobenius}, genus {T.genus}")
print(f"Ap_4 = {list(T.apery(4))}")
print(f"gap polynomial: {T.gap_poly()}")
