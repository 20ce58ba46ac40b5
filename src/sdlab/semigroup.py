"""Numerical semigroups from generators.

A numerical semigroup is a subset of the nonnegative integers that contains 0,
is closed under addition, and misses only finitely many integers (its gaps).
Everything downstream — Apéry sets, the gap polynomial, the Hilbert series,
the semigroup (Alexander) polynomial, quotients S/d — is computed from an
exact membership table built once per semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import EmptyGenerators, GcdNotOne, InexactDivision, NotAMember, TooLarge, require_coprime
from .polyring import ONE, LaurentPoly, geom_sum, monomial

SIZE_MAX = 10**6  # largest Apery or class-count modulus and Hilbert degree: larger are refused before any work


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

    def __getitem__(self, k: int) -> int:
        return self.elements[k]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return self.modulus


class NumericalSemigroup:
    """Immutable numerical semigroup with a precomputed membership table."""

    __slots__ = ("generators", "frobenius", "gaps", "_table", "_gap_poly_cache", "_class_counts")

    def __init__(self, generators: tuple[int, ...], frobenius: int, gaps: tuple[int, ...], table: list[bool]):
        # internal; use from_generators
        self.generators = generators
        self.frobenius = frobenius
        self.gaps = gaps
        self._table = table
        self._gap_poly_cache = None
        self._class_counts = {}

    @classmethod
    def from_generators(cls, gens) -> "NumericalSemigroup":
        gens = sorted(set(int(g) for g in gens))
        if not gens:
            raise EmptyGenerators("at least one generator required")
        if gens[0] < 1:
            raise ValueError("generators must be positive")
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g != 1:
            raise GcdNotOne(f"gcd{tuple(gens)} = {g} != 1")
        # Schur: the Frobenius number is < min*max, so this table always
        # reaches past the conductor.
        bound = gens[0] * gens[-1] + gens[-1]
        table = [False] * (bound + 1)
        table[0] = True
        for x in range(1, bound + 1):
            table[x] = any(x >= g_ and table[x - g_] for g_ in gens)
        gaps = tuple(x for x in range(1, bound + 1) if not table[x])
        frobenius = gaps[-1] if gaps else -1
        return cls(tuple(gens), frobenius, gaps, table)

    # -- membership ---------------------------------------------------------

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        if x < len(self._table):
            return self._table[x]
        return True  # beyond the table means beyond the conductor

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def conductor(self) -> int:
        return self.frobenius + 1

    def members(self, limit: int):
        """Members in [0, limit]."""
        return [x for x in range(limit + 1) if self.contains(x)]

    def __eq__(self, other):
        if isinstance(other, NumericalSemigroup):
            return self.gaps == other.gaps
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"NumericalSemigroup{self.generators}"

    def to_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "frobenius": self.frobenius,
            "genus": self.genus,
            "gaps": list(self.gaps),
        }

    # -- Apéry machinery ------------------------------------------------------

    def apery(self, s: int) -> AperySet:
        """Least member of each residue class mod s; s must be a nonzero member."""
        if s > SIZE_MAX:
            raise TooLarge(f"Apery modulus {s} > {SIZE_MAX}")
        if s <= 0 or not self.contains(s):
            raise NotAMember(f"{s} is not a nonzero member")
        elements = []
        for k in range(s):
            x = k
            while not self.contains(x):
                x += s
            elements.append(x)
        return AperySet(s, tuple(elements))

    def gap_poly(self) -> LaurentPoly:
        """Sum of q^g over the gaps g."""
        if self._gap_poly_cache is None:
            self._gap_poly_cache = LaurentPoly({g: 1 for g in self.gaps})
        return self._gap_poly_cache

    def semigroup_poly(self) -> LaurentPoly:
        """1 - (1-q) * gap_poly; for two coprime generators this is the
        Alexander polynomial of the corresponding torus knot."""
        return ONE - (ONE - monomial(1)) * self.gap_poly()

    def hilbert_trunc(self, n: int) -> LaurentPoly:
        """Truncated Hilbert series: sum of q^k over members k <= n."""
        if n < 0:
            return LaurentPoly()
        if n > SIZE_MAX:
            raise TooLarge(f"Hilbert truncation degree {n} > {SIZE_MAX}")
        return LaurentPoly({k: 1 for k in range(n + 1) if self.contains(k)})

    def class_counts(self, n: int) -> tuple[int, ...]:
        """counts[r] = the number of gaps congruent to r mod n, memoized per n.  Counted
        from the gap list, never from the Apery set, so that a check of these counts
        against Apery floors compares two independent routes."""
        if n < 1:
            raise ValueError("modulus must be >= 1")
        if n > SIZE_MAX:
            raise TooLarge(f"modulus {n} > {SIZE_MAX}")
        if n not in self._class_counts:
            tally = [0] * n
            for g in self.gaps:
                tally[g % n] += 1
            self._class_counts[n] = tuple(tally)
        return self._class_counts[n]

    def gap_poly_from_apery(self, s: int) -> LaurentPoly:
        """Gap polynomial reassembled from the Apéry set of s.

        Each residue class k contributes the geometric block
        q^k * (1 + q^s + ... + q^{s(floor(a_k/s)-1)}), i.e. exactly the gaps
        k, k+s, ..., a_k - s below the Apéry element a_k.
        """
        ap = self.apery(s)
        total = LaurentPoly()
        for k in range(1, s):
            total = total + geom_sum(ap[k] // s, step=s).shift(k)
        return total

    # -- quotient semigroups ---------------------------------------------------

    def quotient(self, d: int) -> "NumericalSemigroup":
        """S/d = {s >= 0 : d*s in S}.

        Membership of the quotient is read straight off this semigroup's table
        (s is a gap of S/d iff d*s is a gap of S), so no new closure
        computation is needed.  The stored generating set is the member list
        of [m, conductor + m] (m the least nonzero member): any larger member
        x has x - m past the conductor, hence decomposes.  Non-minimal but
        provably sufficient.
        """
        if d < 1:
            raise ValueError("d must be >= 1")
        if d == 1:
            return self
        q_gaps = tuple(g // d for g in self.gaps if g % d == 0)
        frobenius = q_gaps[-1] if q_gaps else -1
        conductor = frobenius + 1
        m = 1
        while not self.contains(d * m):
            m += 1
        gens = tuple(s for s in range(m, conductor + m + 1) if self.contains(d * s))
        table = [self.contains(d * s) for s in range(conductor + m + 1)]
        return NumericalSemigroup(gens, frobenius, q_gaps, table)

    def genus_quotient_trig(self, d: int) -> int:
        """Genus of S/d via the root-of-unity average of the gap polynomial.

        (1/d) * sum_k C_S(e^{2*pi*i*k/d}) picks out the gaps divisible by d,
        so it is the class-0 count of class_counts(d), taken from the gap list.
        """
        if d < 1:
            raise ValueError("d must be >= 1")
        return self.class_counts(d)[0]

    def genus_quotient_apery(self, d: int, s: int) -> int:
        """Genus of S/d as a floor sum over the Apéry set of d*s.

        Requires a nonzero s in S/d; then g(S/d) = sum_{i=1}^{s-1} floor(a_{d*i} / (d*s))
        with a_l the Apéry elements of S with respect to d*s.
        """
        if d < 1:
            raise ValueError("d must be >= 1")
        if s <= 0 or not self.contains(d * s):
            raise NotAMember(f"{s} is not a nonzero member of S/{d}")
        ap = self.apery(d * s)
        return sum(ap[(d * i) % (d * s)] // (d * s) for i in range(1, s))


@lru_cache(maxsize=1024)
def torus_semigroup(a: int, b: int) -> NumericalSemigroup:
    """The semigroup generated by a coprime pair.  Cached (every coprime pair
    with b <= 58): the identity checkers revisit the same pair many times."""
    require_coprime(a, b)
    return NumericalSemigroup.from_generators([a, b])


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
    (1 - q^{ab})(1 - q) / ((1 - q^a)(1 - q^b)), computed by exact division."""
    require_coprime(a, b)
    num = (ONE - monomial(a * b)) * (ONE - monomial(1))
    try:
        return num.divexact(ONE - monomial(a)).divexact(ONE - monomial(b))
    except InexactDivision as exc:  # pragma: no cover - would be a bug
        raise InexactDivision(f"closed form must divide exactly for coprime ({a}, {b})") from exc
