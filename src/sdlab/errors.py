"""Exception types shared across the library."""

from math import gcd


class SdlabError(Exception):
    """Base class for all library errors."""


class GcdNotOne(SdlabError):
    """Raised when arguments required to be coprime are not."""


class EmptyGenerators(SdlabError):
    """Raised when a semigroup is requested from an empty generator list."""


class NotAMember(SdlabError):
    """Raised when an operation needs an element of the semigroup and gets a non-member."""


class InexactDivision(SdlabError):
    """Raised when a polynomial division expected to be exact leaves a remainder."""


class TooLarge(SdlabError):
    """Raised when a checker refuses parameters outside its supported range."""


class UnknownIdentity(SdlabError):
    """Raised when an identity filter matches no id of the catalog."""


class EmptyPlan(SdlabError):
    """Raised when a verification run's ranges give the wanted identities no check."""


def require_coprime(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise ValueError(f"need positive integers, got ({a}, {b})")
    if gcd(a, b) != 1:
        raise GcdNotOne(f"gcd({a}, {b}) = {gcd(a, b)} != 1")
