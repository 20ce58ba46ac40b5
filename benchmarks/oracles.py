"""Independent reference computations for checking sdlab's outputs.

Nothing here imports sdlab or repeats its algorithms: sdlab builds semigroups
from a membership table and gets Alexander polynomials by exact polynomial
division, while these oracles use closed forms and shortest paths.  What
they take from sdlab's contract is only how `sdlab verify --seed` draws its
random semigroups.

- Alexander polynomial of the (a, b) torus knot from the Mordell gap set
  {ab - ia - jb > 0 : i, j >= 1}, as 1 - (1 - q) * sum_g q^g.
- Apery sets by Nijenhuis's minimal-path algorithm (1979): the least member
  in each residue class mod m is the shortest-path distance from class 0 in
  the graph on Z/m with an edge r -> r + g of weight g per generator g.
- Frobenius number max(Ap) - m and genus sum(floor(a_k / m)) (Selmer), the
  gaps, and the genus of the quotient S/d, all read off the Apery set.
- The reports `sdlab verify` must produce for given ranges and seed.
- `fingerprint`, which reduces a polynomial to a digest and a few figures, so
  that sdlab's output and an oracle's can be compared without keeping both.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from collections import Counter
from math import gcd


def fingerprint(items: list) -> dict:
    """A polynomial given as ascending (exponent, coefficient) pairs, reduced to
    its digest, number of terms, value at q = 1, lowest and highest exponent,
    and whether it reads the same from both ends.  Walks the pairs in place.
    """
    digest = hashlib.sha256()
    total = 0
    for e, c in items:
        digest.update(f"{e}:{c};".encode())
        total += c
    n = len(items)
    span = items[0][0] + items[-1][0] if items else 0
    palindromic = all(items[i][1] == items[n - 1 - i][1] and items[i][0] + items[n - 1 - i][0] == span
                      for i in range(n // 2))
    return {"digest": digest.hexdigest(), "terms": n, "at_1": str(total),
            "low": items[0][0] if items else None, "high": items[-1][0] if items else None,
            "palindromic": palindromic}

# ---------------------------------------------------------------- torus knots


def mordell_gaps(a: int, b: int) -> list[int]:
    """Gaps of <a, b>: ab - ia - jb for i, j >= 1 while the value stays positive."""
    ab = a * b
    return sorted(ab - i * a - j * b for i in range(1, b) for j in range(1, a) if i * a + j * b < ab)


def mordell_alexander(a: int, b: int) -> dict[int, int]:
    """Coefficients {exponent: coefficient} of 1 - (1 - q) * sum_g q^g over the Mordell gaps."""
    coeffs = {0: 1}
    for g in mordell_gaps(a, b):
        coeffs[g] = coeffs.get(g, 0) - 1
        coeffs[g + 1] = coeffs.get(g + 1, 0) + 1
    return {e: c for e, c in coeffs.items() if c}


# ------------------------------------------------------ semigroups via Apery sets


def apery(gens, m: int) -> list[int]:
    """Apery set of <gens> with respect to the member m, indexed by residue mod m.

    Dijkstra over residues mod m (Nijenhuis 1979).  Raises ValueError when
    some residue class is unreachable, i.e. the generators have gcd > 1.
    """
    dist = [None] * m
    dist[0] = 0
    heap = [(0, 0)]
    steps = sorted({g for g in gens if g % m})
    while heap:
        d, r = heapq.heappop(heap)
        if d != dist[r]:
            continue
        for g in steps:
            nd, nr = d + g, (r + g) % m
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    if None in dist:
        raise ValueError(f"generators {tuple(gens)} do not have gcd 1")
    return dist


def is_member(ap: list[int], x: int) -> bool:
    """Membership from an Apery set: x is a member iff it is at least the class's least member."""
    return x >= 0 and x >= ap[x % len(ap)]


def frobenius(ap: list[int]) -> int:
    return max(ap) - len(ap)


def genus(ap: list[int]) -> int:
    """Selmer: class k holds floor(a_k / m) gaps, namely k, k + m, ..., a_k - m."""
    m = len(ap)
    return sum(x // m for x in ap)


def gaps(ap: list[int]) -> list[int]:
    """All gaps, ascending: class k holds the run k, k + m, ..., a_k - m."""
    m = len(ap)
    return sorted(k + j * m for k, x in enumerate(ap) for j in range(x // m))


def quotient_genus(ap: list[int], d: int) -> int:
    """Genus of S/d = {s : d s in S}: the number of gaps of S divisible by d.

    In class k the gaps are k + j m for 0 <= j < floor(a_k / m); those
    divisible by d have j in one residue class mod d / gcd(m, d), or none.
    """
    m = len(ap)
    period = d // gcd(m, d)
    total = 0
    for k, x in enumerate(ap):
        n = x // m
        first = next((j for j in range(period) if (k + j * m) % d == 0), None)
        if first is not None and first < n:
            total += (n - first + period - 1) // period
    return total


# ------------------------------------------------------------ verify reports


def coprime_pairs(bmax: int) -> list[tuple[int, int]]:
    return [(a, b) for b in range(3, bmax + 1) for a in range(2, b) if gcd(a, b) == 1]


def _key(identity_id: str, params: dict) -> tuple:
    return identity_id, tuple(sorted(params.items()))


def expected_pair_reports(pairs_max: int, prop2_pairs_max: int, prop2_linear_pairs_max: int,
                          prop2_m_max: int = 4, prop2_n_max: int = 3) -> Counter:
    """Reports of the coprime-pair sweeps, which do not depend on the seed."""
    out = Counter()
    for a, b in coprime_pairs(pairs_max):
        out[_key("eq1", {"a": a, "b": b, "N": a * b})] += 1
        for s in (a, b):
            out[_key("eq6", {"g1": a, "g2": b, "s": s})] += 1
        for k in range(b):
            for identity_id in ("prop1.eq4", "prop1.eq5", "gapvalues"):
                out[_key(identity_id, {"a": a, "b": b, "k": k})] += 1
        for identity_id in ("prop3", "prop4.R11", "prop4.T11", "prop5", "prop6.eq7", "cor510", "sawtoothpoly"):
            out[_key(identity_id, {"a": a, "b": b})] += 1
    for a, b in coprime_pairs(prop2_linear_pairs_max):
        for m in range(1, prop2_m_max + 1):
            out[_key("prop2", {"a": a, "b": b, "m": m, "n": 1})] += 1
    for a, b in coprime_pairs(prop2_pairs_max):
        for m in range(1, prop2_m_max + 1):
            for n in range(2, prop2_n_max + 1):
                out[_key("prop2", {"a": a, "b": b, "m": m, "n": n})] += 1
    return out


def expected_semigroup_reports(gens: tuple, member_max: int, d_max: int) -> Counter:
    """Reports of one random semigroup, with membership from its Apery set."""
    ap = apery(gens, min(gens))
    base = {f"g{i + 1}": g for i, g in enumerate(gens)}
    out = Counter()
    for s in range(1, member_max + 1):
        if is_member(ap, s):
            out[_key("eq6", {**base, "s": s})] += 1
            for k in range(s):
                out[_key("prop1.eq2", {**base, "s": s, "k": k})] += 1
                out[_key("prop1.eq3", {**base, "s": s, "k": k})] += 1
    for d in range(1, d_max + 1):
        if any(is_member(ap, d * s) for s in range(1, 21)):
            out[_key("prop7", {**base, "d": d})] += 1
    return out


def drawn_semigroups(seed: int, count: int) -> list[tuple]:
    """Generator sets of the random semigroups of `sdlab verify --seed seed`.

    As the CLI documents them: random.Random(seed) draws, count times, 2 to 4
    generators from [2, 30], drawing again until their gcd is 1; reports name
    them sorted and distinct as g1..gn.  The project keeps reports
    byte-identical for a given seed, so this draw is part of the CLI contract.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        while True:
            gens = [rng.randint(2, 30) for _ in range(rng.randint(2, 4))]
            if gcd(*gens) == 1:
                break
        out.append(tuple(sorted(set(gens))))
    return out


def check_verify_reports(reports: list, *, seed: int, pairs_max: int, semigroups: int, member_max: int,
                         d_max: int, prop2_pairs_max: int, prop2_linear_pairs_max: int) -> list[str]:
    """Problems with a parsed `sdlab verify` JSON report; empty when it is right.

    The multiset of (id, params) must equal the pair sweeps plus the reports
    of every random semigroup the seed draws, with membership from its Apery
    set; the verdicts must be pass, or expected-discrepancy on prop4.T11.
    """
    problems = []
    for r in reports:
        if r["verdict"] == "fail":
            problems.append(f"fail verdict: {r['id']} {r['params']}")
        elif r["verdict"] == "expected-discrepancy" and r["id"] != "prop4.T11":
            problems.append(f"expected-discrepancy outside prop4.T11: {r['id']} {r['params']}")
        elif r["verdict"] not in ("pass", "expected-discrepancy"):
            problems.append(f"unknown verdict {r['verdict']!r}: {r['id']}")
    want = expected_pair_reports(pairs_max, prop2_pairs_max, prop2_linear_pairs_max)
    for gens in drawn_semigroups(seed, semigroups):
        want += expected_semigroup_reports(gens, member_max, d_max)
    seen = Counter(_key(r["id"], r["params"]) for r in reports)
    for what, diff in (("missing", want - seen), ("unexpected", seen - want)):
        if diff:
            identity_id, params = next(iter(diff))
            problems.append(f"{sum(diff.values())} reports {what}, e.g. {identity_id} {dict(params)}")
    return problems
