"""Numerical semigroups from generators.

A numerical semigroup is a subset of the nonnegative integers that contains 0,
is closed under addition, and misses only finitely many integers (its gaps).
It is held as its Apéry set ap with respect to its least generator m: ap[k] is
the least member congruent to k mod m, so x is a member iff x >= ap[x % m], the
Frobenius number is max(ap) - m and the genus (sum(ap) - m(m - 1)/2) / m
(Selmer 1977).  Gaps, members, quotients S/d and Apéry sets are read off ap
class by class, with no membership test per integer: class k holds the gaps k,
k + m, ..., ap[k] - m, which the gap list sieves into one flag per integer below
the conductor and reads off in ascending order.  A quotient lists its
generating set only when it is read, and is re-rooted only when its
multiplicity is below the modulus it was built for.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, repeat
from math import gcd

from .errors import EmptyGenerators, GcdNotOne, NotAMember, TooLarge, require_coprime
from .polyring import ONE, LaurentPoly, monomial

SIZE_MAX = 10**6  # largest least generator, Apery modulus, walked genus or member range; larger are refused before any work


def _bound(n: int, what: str, limit: int = SIZE_MAX) -> None:
    if n > limit:
        raise TooLarge(f"{what} {n} > {limit}")


def _members(ap, lo: int, hi: int) -> list[int]:
    """Members in [lo, hi], ascending, of the semigroup with Apéry set ap: one range per class."""
    n = len(ap)
    return sorted(chain.from_iterable(range(max(a, lo + (a - lo) % n), hi + 1, n) for a in ap))


def _reroot(ap, s: int) -> tuple[int, ...]:
    """Apéry set of a member s from the Apéry set ap of n = len(ap): the members w with w - s not a member
    (Rosales and García-Sánchez 2009, Lemma 2.4), in class k mod n those below ap[(k - s) % n] + s."""
    n, least = len(ap), [0] * s
    for k in range(n):
        for w in range(ap[k], ap[(k - s) % n] + s, n):
            least[w % s] = w
    return tuple(least)


def _round_robin(gens, s: int) -> tuple[int, ...]:
    """ap[k] = the least member of <gens, s> congruent to k mod s, by the round
    robin of Böcker and Lipták (Algorithmica 2007): each generator g lowers ap
    along the cycles k -> k + g mod s (the classes mod gcd(g, s)), each walked
    once from its least entry, which g cannot lower."""
    ap = [0] + [float("inf")] * (s - 1)
    for g in (g for g in gens if g % s):
        cycles = gcd(g, s)
        for p in range(cycles):
            k = min(range(p, s, cycles), key=ap.__getitem__)
            reach = ap[k]
            for _ in range(s // cycles - 1):
                k = (k + g) % s
                reach += g
                if ap[k] < reach:
                    reach = ap[k]
                else:
                    ap[k] = reach
    return tuple(ap)


@dataclass(frozen=True)
class AperySet:
    """Apéry set of a semigroup with respect to a nonzero member s.

    elements[k] is the least member congruent to k mod s; elements[k] - s is
    never a member (it is a gap, or negative).
    """

    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self):
        if len(self.elements) != self.modulus:
            raise ValueError("one element per residue class required")
        for k, a in enumerate(self.elements):
            if a % self.modulus != k:
                raise ValueError(f"element {a} not in residue class {k}")

    @classmethod
    def _unchecked(cls, elements: tuple[int, ...]) -> "AperySet":  # one element per class by construction
        apery = object.__new__(cls)
        apery.__dict__.update(modulus=len(elements), elements=elements)
        return apery

    def __getitem__(self, k: int) -> int:
        return self.elements[k]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return self.modulus


class NumericalSemigroup:
    """Immutable numerical semigroup, held as its Apéry set `ap` with respect
    to its least nonzero member, the multiplicity m = len(ap).

    >>> list(torus_semigroup(3, 5).apery(5))  # re-rooted from ap = (0, 10, 5)
    [0, 6, 12, 3, 9]
    >>> Q = NumericalSemigroup.from_generators([7, 11, 13]).quotient(3)
    >>> Q.genus, Q.generators  # the generators are listed here, on first read
    (6, (6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17))
    """

    __slots__ = ("_generators", "ap", "multiplicity", "frobenius", "genus", "_gaps", "_gap_poly_cache", "_class_counts")

    def __init__(self, generators: tuple[int, ...] | None, ap: tuple[int, ...]):
        # internal; use from_generators.  None generators are listed when read
        self._generators = generators
        self.ap = ap
        self.multiplicity = m = len(ap)
        self.frobenius = max(ap) - m
        self.genus = (sum(ap) - m * (m - 1) // 2) // m  # ap[k] = k mod m: sum(ap) = m * genus + sum(range(m))
        self._gaps = None
        self._gap_poly_cache = None
        self._class_counts = {}

    @classmethod
    def from_generators(cls, gens) -> "NumericalSemigroup":
        gens = tuple(sorted(set(int(g) for g in gens)))
        if not gens:
            raise EmptyGenerators("at least one generator required")
        if gens[0] < 1:
            raise ValueError("generators must be positive")
        if (g := gcd(*gens)) != 1:
            raise GcdNotOne(f"gcd{gens} = {g} != 1")
        _bound(gens[0], "least generator")
        return cls(gens, _round_robin(gens, gens[0]))

    # -- membership ---------------------------------------------------------

    def contains(self, x: int) -> bool:
        return x >= self.ap[x % self.multiplicity]  # ap[k] >= 0, so x < 0 is refused too

    __contains__ = contains

    @property
    def gaps(self) -> tuple[int, ...]:
        """The gaps in ascending order, listed on first use: class k flags its gaps k, k + m, ...,
        ap[k] - m in one strided slice of a buffer of one byte per integer below the conductor
        (at most 2 * genus), and the flagged integers are read off in order, with no sort."""
        if self._gaps is None:
            _bound(self.genus, "genus")
            ap, m = self.ap, self.multiplicity
            flags = bytearray(self.conductor)
            for k in range(1, m):
                flags[k:ap[k]:m] = b"\1" * (ap[k] // m)
            self._gaps = tuple(compress(range(self.conductor), flags))
        return self._gaps

    @property
    def generators(self) -> tuple[int, ...]:
        """As given, or for a quotient the members of [m, conductor + m], listed on first read: any
        larger member x has x - m past the conductor, hence decomposes.  Not minimal."""
        if self._generators is None:
            self._generators = tuple(_members(self.ap, self.multiplicity, self.conductor + self.multiplicity))
        return self._generators

    @property
    def conductor(self) -> int:
        return self.frobenius + 1

    def members(self, limit: int):
        """Members in [0, limit]."""
        _bound(limit, "member range limit")
        return _members(self.ap, 0, limit)

    def __eq__(self, other):
        return self.ap == other.ap if isinstance(other, NumericalSemigroup) else NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"NumericalSemigroup{self.generators}"

    def to_dict(self) -> dict:
        return {"generators": list(self.generators), "frobenius": self.frobenius, "genus": self.genus,
                "gaps": list(self.gaps)}

    # -- Apéry machinery ------------------------------------------------------

    def apery(self, s: int) -> AperySet:
        """Least member of each residue class mod s; s must be a nonzero member.  Re-rooted
        from ap in closed form, in O(m + s) steps whatever the genus; s = m is ap itself."""
        _bound(s, "Apery modulus")
        if s <= 0 or not self.contains(s):
            raise NotAMember(f"{s} is not a nonzero member")
        return AperySet._unchecked(self.ap if s == self.multiplicity else _reroot(self.ap, s))

    def gap_poly(self) -> LaurentPoly:
        """Sum of q^g over the gaps g."""
        if self._gap_poly_cache is None:
            self._gap_poly_cache = LaurentPoly._raw(dict.fromkeys(self.gaps, 1))
        return self._gap_poly_cache

    def semigroup_poly(self) -> LaurentPoly:
        """1 - (1-q) * gap_poly; for two coprime generators this is the
        Alexander polynomial of the corresponding torus knot."""
        return ONE - (ONE - monomial(1)) * self.gap_poly()

    def hilbert_trunc(self, n: int) -> LaurentPoly:
        """Truncated Hilbert series: sum of q^k over members k <= n."""
        return LaurentPoly._raw(dict.fromkeys(self.members(n), 1))

    def class_counts(self, n: int) -> tuple[int, ...]:
        """counts[r] = the number of gaps congruent to r mod n, memoized per n.  Counted
        from the gap list, never from the Apery set, so that a check of these counts
        against Apery floors compares two independent routes."""
        if n < 1:
            raise ValueError("modulus must be >= 1")
        _bound(n, "modulus")
        if n not in self._class_counts:
            tally = Counter(g % n for g in self.gaps)
            self._class_counts[n] = tuple(tally[r] for r in range(n))
        return self._class_counts[n]

    def gap_poly_from_apery(self, s: int) -> LaurentPoly:
        """Gap polynomial reassembled from the Apéry set of s.

        Each residue class k contributes the geometric block
        q^k * (1 + q^s + ... + q^{s(floor(a_k/s)-1)}), i.e. exactly the gaps
        k, k+s, ..., a_k - s below the Apéry element a_k.
        """
        _bound(self.genus, "genus")
        ap = self.apery(s)
        return LaurentPoly._raw({k + s * i: 1 for k in range(1, s) for i in range(ap[k] // s)})

    # -- quotient semigroups ---------------------------------------------------

    def quotient(self, d: int) -> "NumericalSemigroup":
        """S/d = {x >= 0 : d*x in S}, in closed form from the Apéry set ap of S.

        x is in S/d iff d*x >= ap[d*x mod m], which depends only on x mod n = m/gcd(d, m):
        class c mod n starts at the least x = c mod n with x >= ceil(ap[d*c mod m] / d).
        n is in S/d; if its least nonzero member m' is smaller, the Apéry set is re-rooted at
        m' as in apery.  The generating set is listed only when `generators` is read.
        """
        if d < 1:
            raise ValueError("d must be >= 1")
        if d == 1:
            return self
        _bound(self.genus, "genus")  # S/d has at most as many gaps as S
        m, ap = self.multiplicity, self.ap
        n = m // gcd(d, m)
        least = [c - n * ((c + -ap[d * c % m] // d) // n) for c in range(n)]  # c - n*floor((c - ceil(ap/d)) / n)
        mq = min([n, *least[1:]])
        return NumericalSemigroup(None, _reroot(least, mq) if mq < n else tuple(least))

    def genus_quotient_trig(self, d: int) -> int:
        """Genus of S/d via the root-of-unity average of the gap polynomial:
        (1/d) * sum_k C_S(e^{2*pi*i*k/d}) picks out the gaps divisible by d, so
        it is their number, counted straight from the gap list, not from ap."""
        if d < 1:
            raise ValueError("d must be >= 1")
        _bound(d, "modulus")
        return [g % d for g in self.gaps].count(0)

    def genus_quotient_apery(self, d: int, s: int) -> int:
        """Genus of S/d as a floor sum over the Apéry set a of S with respect to d*s,
        for a nonzero s in S/d: g(S/d) = sum_{i=1}^{s-1} floor(a_{d*i} / (d*s)).
        Each summed entry is found by scanning its class upwards to a member, x >= ap[x % m]:
        that visits s - 1 of the d*s classes, where apery(d*s) would build all of them."""
        if d < 1:
            raise ValueError("d must be >= 1")
        ap, m, ds = self.ap, self.multiplicity, d * s
        if s <= 0 or ds < ap[ds % m]:
            raise NotAMember(f"{s} is not a nonzero member of S/{d}")
        _bound(ds, "Apery modulus")
        _bound(self.genus, "genus")  # the scans step past distinct gaps
        total = 0
        for x in range(d, ds, d):
            while x < ap[x % m]:
                x += ds
            total += x // ds
        return total


@lru_cache(maxsize=16)
def torus_semigroup(a: int, b: int) -> NumericalSemigroup:
    """The semigroup generated by a coprime pair, in closed form: with m < n, the
    Apéry set of m holds n*j in class n*j mod m.  Cached: the identity checks
    of one pair, which run_suite makes together, revisit it many times."""
    require_coprime(a, b)
    m, n = min(a, b), max(a, b)
    _bound(m, "least generator")
    return NumericalSemigroup(tuple(sorted({a, b})), tuple(sorted(range(0, m * n, n), key=lambda x: x % m)))


def torus_gaps_mordell(a: int, b: int) -> list[int]:
    """Gap set of <a, b> in closed form: {ab - ia - jb : 0 < i < b, 0 < j < a, ia + jb < ab}.

    The construction must be duplicate-free; a repeat would mean gcd(a, b) > 1.
    """
    require_coprime(a, b)
    ab = a * b
    out = []
    seen = set()
    for i in range(1, b):
        for j in range(1, a):
            v = i * a + j * b
            if v < ab:
                g = ab - v
                if g in seen:
                    raise ValueError(f"duplicate gap {g}; construction requires coprime (a, b)")
                seen.add(g)
                out.append(g)
    return sorted(out)


def alexander_closed_form(a: int, b: int) -> LaurentPoly:
    """Alexander polynomial of the (a, b) torus knot:
    (1 - q^{ab})(1 - q) / ((1 - q^a)(1 - q^b)).

    With m, n = sorted((a, b)), (1 - q^{mn})/(1 - q^n) is the geometric sum of
    the unit terms q^{n*i}, i < m, so the dividend N = (1 - q) sum_{i<m} q^{n*i}
    has a +1 at n*i and a -1 at n*i + 1 for each i < m.  Dividing by 1 - q^m is
    multiplying by sum_j q^{j*m}: the quotient Q has Q[e] = N[e] + Q[e - m], a
    running sum of N along each residue class mod m.  As gcd(m, n) = 1, both
    i -> n*i mod m and i -> n*i + 1 mod m are bijections of Z/m, so each class
    holds one +1 term of N, at lo, and one -1 term, at stop.  Along that class
    Q is +1 on [lo, stop) when lo < stop, -1 on [stop, lo) otherwise, and 0
    past both: the division is exact by construction, and Q is written one
    range per class, O(m) steps.  Its degree is twice the genus
    (a - 1)(b - 1)/2, and a genus above SIZE_MAX is refused with TooLarge
    before any work."""
    require_coprime(a, b)
    _bound((a - 1) * (b - 1) // 2, "genus")
    m, n = sorted((a, b))
    start = [0] * m  # start[c]: the +1 term of N in class c
    for i in range(m):
        start[n * i % m] = n * i
    pos, neg = [], []  # the classes' ranges of +1 and of -1 terms, disjoint
    for i in range(m):
        stop = n * i + 1
        lo = start[stop % m]
        if lo < stop:
            pos.append(range(lo, stop, m))
        else:
            neg.append(range(stop, lo, m))
    terms = dict.fromkeys(chain.from_iterable(pos), 1)
    terms.update(zip(chain.from_iterable(neg), repeat(-1)))  # pairs, not a second dict: a lower peak
    return LaurentPoly._raw(terms)
