"""Itineraries and formal periodic points.

A finite itinerary I = (I_1, ..., I_N) over {-1, +1} names a branch at
each step.  The formal I-periodic point starts the orbit that follows
those branches and closes after N steps, whether or not the orbit signs
match I; core's cyclic solver, which the oracle's pattern search shares,
gives its whole orbit.  Sign consistency is quantified by the
admissibility value: the orbit is realizable by the genuine map iff the
value is >= 0.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from operator import mul

from .core import (
    DomainError,
    Params,
    Point,
    SingularSystemError,  # re-exported: cyclic_orbit raises it
    _require_count,
    cyclic_orbit,
)

Itinerary = tuple[int, ...]

_SYMBOLS = {"-": -1, "+": +1}
_CHARS = {-1: "-", +1: "+"}


class ItineraryError(DomainError):
    """Malformed itinerary text or symbols."""


def _require_symbols(itinerary: Itinerary) -> None:
    """Refuse, with ItineraryError, a word with a symbol other than -1 or
    +1 (the floats -1.0 and +1.0 are the same symbols; bools are not)."""
    if not {-1, +1}.issuperset(itinerary) or bool in map(type, itinerary):
        bad = next(s for s in itinerary if type(s) is bool or s not in (-1, +1))
        raise ItineraryError(f"bad symbol {bad!r} in {itinerary!r}: symbols are -1, +1")


def parse_itinerary(text: str) -> Itinerary:
    """Parse a sign word such as "+-++-" into a tuple over {-1, +1}."""
    if not text:
        raise ItineraryError("empty itinerary")
    try:
        return tuple(_SYMBOLS[c] for c in text)
    except KeyError as exc:
        raise ItineraryError(f"bad symbol {exc.args[0]!r} in {text!r}") from None


def format_itinerary(itinerary: Itinerary) -> str:
    return "".join(_CHARS[s] for s in itinerary)


def sign_words(length: int) -> list[Itinerary]:
    """All 2**length words over {-1, +1}; symbol k of word j is + iff bit k
    of j is set."""
    _require_count("length", length, 0)
    return [
        tuple(+1 if bits >> k & 1 else -1 for k in range(length))
        for bits in range(2**length)
    ]


@dataclass(frozen=True, slots=True)
class FormalPeriodicPoint:
    point: Point
    itinerary: Itinerary
    admissibility: float
    hyperbolic: bool
    residual: float


# (a, b, itinerary) -> formal point, inside a _solve_once scope only; keyed
# by floats, so a lookup hashes no Params
_SOLVED: ContextVar[dict | None] = ContextVar("_SOLVED", default=None)


@contextmanager
def _solve_once():
    """Within this scope formal_periodic_point solves each (p, itinerary)
    once; later calls return the stored point.  On leaving it the points
    are dropped."""
    token = _SOLVED.set({})
    try:
        yield
    finally:
        _SOLVED.reset(token)


def formal_periodic_point(p: Params, itinerary: Itinerary) -> FormalPeriodicPoint:
    """Point (x_0, x_{N-1}) of the orbit from core.cyclic_orbit, admissibility
    min I_k x_k, and residual max_k |x_{k+1} + I_k a x_k - (a - 1) + b (x_{k-1}
    + 1)|, summed in that order so that the coupling is not lost in the
    rounding of a (an N-step closure error grows like lam^N even at the exact
    orbit).  Raises ItineraryError for a symbol other than -1 or +1,
    SingularSystemError for an empty word or a numerically singular cyclic
    system (a core.cyclic_orbit pivot below 1e-13 in magnitude), and
    DomainError when the orbit or a reported value is not finite.  The
    point stores the itinerary as a tuple, so it hashes and compares
    whatever sequence was given.

    The point depends on (p, itinerary) alone, so inside a _solve_once
    scope (each verify suite runs in one) a pair is solved once and
    later calls return that point; a solve that raises is not kept, and
    the symbols are checked on every call.  Outside a scope every call
    solves.
    """
    itinerary = tuple(itinerary)
    _require_symbols(itinerary)
    solved = _SOLVED.get()
    fp = None if solved is None else solved.get((p.a, p.b, itinerary))
    if fp is not None:
        return fp
    xs = cyclic_orbit(p, itinerary)
    h = min(map(mul, itinerary, xs))
    a, b = p.a, p.b
    residual = max(
        abs(xs[(k + 1) % len(xs)] + s * a * xs[k] - (a - 1.0) + b * (xs[k - 1] + 1.0))
        for k, s in enumerate(itinerary)
    )
    if not all(map(math.isfinite, (*xs, h, residual))):
        raise DomainError(
            f"formal orbit of {format_itinerary(itinerary)} overflows at ({p.a}, {p.b})"
        )
    fp = FormalPeriodicPoint(
        point=(xs[0], xs[-1]),
        itinerary=itinerary,
        admissibility=h,
        hyperbolic=h > 0.0,
        residual=residual,
    )
    if solved is not None:
        solved[p.a, p.b, itinerary] = fp
    return fp


def iota(sigma: int, m: int, n: int) -> Itinerary:
    """The length-(m+n) word (+, -^(m-2), +, +, -^(n-2), sigma)."""
    try:
        _require_count("m", m, 2)
        _require_count("n", n, 2)
    except DomainError as exc:
        raise ItineraryError(*exc.args) from None
    if type(sigma) is bool or sigma not in (-1, +1):
        raise ItineraryError(f"sigma must be -1 or +1, got {sigma}")
    return (+1,) + (-1,) * (m - 2) + (+1, +1) + (-1,) * (n - 2) + (sigma,)
