"""The one-dimensional itinerary order and the degenerate forcing check.

U-itineraries are eventually periodic sequences over {-1, 0, +1}, stored
as a finite preperiod plus a repeating period.  The order compares the
first differing symbols weighted by the parity of the common prefix; two
sequences sharing a 0 at the first undecided position are equivalent
(both continue as the critical orbit).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass

from .core import DomainError, Params
from .symbolic import Itinerary, formal_periodic_point, iota


class Ordering(enum.Enum):
    LESS = -1
    EQUIVALENT = 0
    GREATER = +1


class UItineraryError(DomainError):
    """Malformed U-itinerary data."""


@dataclass(frozen=True)
class UItinerary:
    """Eventually periodic symbol sequence: preperiod then repeating period."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise UItineraryError("period part must be nonempty")
        for s in self.preperiod + self.period:
            if s not in (-1, 0, +1):
                raise UItineraryError(f"bad symbol {s!r}")

    def symbol(self, i: int) -> int:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def shift(self, k: int = 1) -> "UItinerary":
        """Drop the first k symbols."""
        if k <= len(self.preperiod):
            return UItinerary(self.preperiod[k:], self.period)
        r = (k - len(self.preperiod)) % len(self.period)
        return UItinerary((), self.period[r:] + self.period[:r])


def epsilon(word: Itinerary) -> int:
    """Orientation (-1)^N of a finite word, N = number of + symbols."""
    sign = 1
    for s in word:
        if s == +1:
            sign = -sign
        elif s != -1:
            raise UItineraryError("orientation is defined only for words over {-, +}")
    return sign


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def order_compare(i1: UItinerary, i2: UItinerary) -> Ordering:
    """Parity-weighted lexicographic comparison of two U-itineraries.

    The comparison horizon preperiod1 + preperiod2 + lcm(period1, period2)
    + 1 suffices: beyond it both sequences are jointly periodic, so either
    a difference appeared earlier or they are equal.
    """
    horizon = range(
        len(i1.preperiod) + len(i2.preperiod) + _lcm(len(i1.period), len(i2.period)) + 1
    )
    decision = compare_tails(map(i1.symbol, horizon), map(i2.symbol, horizon))
    return Ordering.EQUIVALENT if decision is None else decision


def compare_tails(symbols1: Iterable[int], symbols2: Iterable[int]) -> Ordering | None:
    """Compare two finite symbol runs; None if no decision within them."""
    sign = 1
    for s1, s2 in zip(symbols1, symbols2):
        if s1 == s2 == 0:
            return Ordering.EQUIVALENT
        if s1 != s2:
            return Ordering.LESS if sign * s1 < sign * s2 else Ordering.GREATER
        if s1 == +1:
            sign = -sign
    return None


def is_maximum(i: UItinerary) -> bool:
    """Whether every shift compares <= to the sequence itself."""
    for k in range(1, len(i.preperiod) + len(i.period) + 1):
        if order_compare(i.shift(k), i) is Ordering.GREATER:
            return False
    return True


def forcing_check_tent(a: float, m: int, n1: int, n2: int) -> bool:
    """Degenerate-family forcing: the (m, n1) pair forces both (m, n2) pairs.

    At b = 0, if the formal point of the plus-tagged (m, n1) word is
    admissible then both sign-tagged (m, n2) words must be admissible too;
    returns the truth of that implication (vacuously true otherwise).
    """
    if not 2 <= n2 < n1 < m:
        raise DomainError(f"need 2 <= n2 < n1 < m, got ({m}, {n1}, {n2})")
    if not 1.0 < a <= 2.0:
        raise DomainError(f"need a in (1, 2], got {a}")
    p = Params(a, 0.0)
    if formal_periodic_point(p, iota(+1, m, n1)).admissibility < 0.0:
        return True
    return all(
        formal_periodic_point(p, iota(sigma, m, n2)).admissibility >= 0.0
        for sigma in (-1, +1)
    )
