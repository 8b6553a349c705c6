"""Itineraries, formal branch compositions, and formal periodic points.

A finite itinerary I = (I_1, ..., I_N) over {-1, +1} selects branches; the
composition is applied first-symbol-first.  The formal I-periodic point is
the unique fixed point of that affine composition, whether or not the orbit
signs match I; core's cyclic solver, which the oracle's pattern search
shares, gives its whole orbit.  Sign consistency is quantified by the
admissibility value: the orbit is realizable by the genuine map iff the
value is >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    DomainError,
    Params,
    Point,
    SingularSystemError,  # re-exported: cyclic_orbit raises it
    apply_branch,
    branch_matrix,
    cyclic_orbit,
    multipliers,
)

Itinerary = tuple[int, ...]

_SYMBOLS = {"-": -1, "+": +1}
_CHARS = {-1: "-", +1: "+"}


class ItineraryError(DomainError):
    """Malformed itinerary text or symbols."""


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


@dataclass(frozen=True)
class AffineMap2:
    """Planar affine map v |-> A v - w with A stored row-major."""

    A: tuple[float, float, float, float]
    w: tuple[float, float]

    def apply(self, v: Point) -> Point:
        a11, a12, a21, a22 = self.A
        return (a11 * v[0] + a12 * v[1] - self.w[0], a21 * v[0] + a22 * v[1] - self.w[1])

    def det(self) -> float:
        a11, a12, a21, a22 = self.A
        return a11 * a22 - a12 * a21

    def trace(self) -> float:
        return self.A[0] + self.A[3]


def spectral_radius(m: AffineMap2) -> float:
    """Spectral radius of the linear part (closed form for 2x2)."""
    tr, det = m.trace(), m.det()
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        return max(abs(0.5 * (tr + root)), abs(0.5 * (tr - root)))
    return math.sqrt(abs(det))  # complex pair: |eig| = sqrt(det)


def compose_formal(p: Params, itinerary: Itinerary) -> AffineMap2:
    """Exact affine composition of the branches named by the itinerary."""
    a11, a12, a21, a22 = 1.0, 0.0, 0.0, 1.0
    t1 = t2 = 0.0
    c1 = p.a - p.b - 1.0
    for sigma in itinerary:
        m11, m12, m21, m22 = branch_matrix(p, sigma)
        a11, a12, a21, a22 = (
            m11 * a11 + m12 * a21,
            m11 * a12 + m12 * a22,
            m21 * a11 + m22 * a21,
            m21 * a12 + m22 * a22,
        )
        t1, t2 = m11 * t1 + m12 * t2 + c1, m21 * t1 + m22 * t2
    return AffineMap2(A=(a11, a12, a21, a22), w=(-t1, -t2))


def formal_orbit(p: Params, itinerary: Itinerary, v: Point) -> list[Point]:
    """The branch-forced orbit [v, L_{I1}(v), L_{I2 I1}(v), ...], length N+1."""
    orbit = [v]
    for sigma in itinerary:
        orbit.append(apply_branch(p, sigma, orbit[-1]))
    return orbit


def admissibility_value(p: Params, itinerary: Itinerary, v: Point) -> float:
    """min over m of I_m * x-coordinate of the (m-1)-step formal orbit.

    Nonnegative iff the formal orbit signs agree with the itinerary, i.e.
    iff the first l(I) genuine iterates of v follow the named branches.
    """
    orbit = formal_orbit(p, itinerary, v)  # zip drops its closing point
    return min((s * q[0] for s, q in zip(itinerary, orbit)), default=math.inf)


@dataclass(frozen=True)
class FormalPeriodicPoint:
    point: Point
    itinerary: Itinerary
    admissibility: float
    hyperbolic: bool
    residual: float


def formal_periodic_point(p: Params, itinerary: Itinerary) -> FormalPeriodicPoint:
    """Point (x_0, x_{N-1}) of the orbit from core.cyclic_orbit, admissibility
    min I_k x_k, and residual max_k |x_{k+1} + I_k a x_k - (a - 1) + b (x_{k-1}
    + 1)|, summed in that order so that the coupling is not lost in the
    rounding of a (an N-step closure error grows like lam^N even at the exact
    orbit).  Raises SingularSystemError outside the two-saddle region and
    DomainError when the orbit or a reported value is not finite.
    """
    xs = cyclic_orbit(p, itinerary)
    h = min(s * x for s, x in zip(itinerary, xs))
    a, b = p.a, p.b
    residual = max(
        abs(xs[(k + 1) % len(xs)] + s * a * xs[k] - (a - 1.0) + b * (xs[k - 1] + 1.0))
        for k, s in enumerate(itinerary)
    )
    if not all(map(math.isfinite, (*xs, h, residual))):
        raise DomainError(
            f"formal orbit of {format_itinerary(itinerary)} overflows at ({p.a}, {p.b})"
        )
    return FormalPeriodicPoint(
        point=(xs[0], xs[-1]),
        itinerary=itinerary,
        admissibility=h,
        hyperbolic=h > 0.0,
        residual=residual,
    )


def iota(sigma: int, m: int, n: int) -> Itinerary:
    """The length-(m+n) word (+, -^(m-2), +, +, -^(n-2), sigma)."""
    if m < 2 or n < 2:
        raise ItineraryError(f"need m, n >= 2, got ({m}, {n})")
    if sigma not in (-1, +1):
        raise ItineraryError(f"sigma must be -1 or +1, got {sigma}")
    return (+1,) + (-1,) * (m - 2) + (+1, +1) + (-1,) * (n - 2) + (sigma,)


def spectral_lower_bound_check(p: Params, itinerary: Itinerary) -> bool:
    """True iff the composition's spectral radius is >= lam^l(I) - 1e-9."""
    rho = spectral_radius(compose_formal(p, itinerary))
    lam = multipliers(p).lam
    return rho >= lam ** len(itinerary) - 1e-9
