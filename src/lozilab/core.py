"""The orientation-preserving Lozi family and its basic invariants.

The map is (x, y) |-> (-a|x| - b*y + (a-b-1), x).  For b > 0 this normal
form is a rescaled version of the classical family
(x, y) |-> (-a|x| + y + 1, -b*x), with both coordinates divided by
a-b-1 and the second weighted by b; only the normal form is implemented.
Everything in this package is a pure function of the parameter pair
(a, b); all reals are 64-bit floats and correctness is backed by residual
checks in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Point = tuple[float, float]

MINUS = -1
PLUS = +1
SIGNS = (MINUS, PLUS)


class DomainError(ValueError):
    """Input outside the domain an operation is defined on."""


class RegionError(DomainError):
    """Parameters outside the required parameter region."""


class SpectrumError(DomainError):
    """Eigenvalues are complex where real ones are required."""


@dataclass(frozen=True)
class Params:
    """Parameter pair: a is the expansion, b the Jacobian determinant."""

    a: float
    b: float

    @property
    def in_full(self) -> bool:
        """b+1 < a < inf and 0 <= b <= 1: two saddle fixed points exist."""
        return self.b + 1.0 < self.a < math.inf and 0.0 <= self.b <= 1.0

    @property
    def in_mod(self) -> bool:
        """3b+1 < a < inf and 0 <= b <= 1: the renormalization partition exists."""
        return 3.0 * self.b + 1.0 < self.a < math.inf and 0.0 <= self.b <= 1.0

    def in_nbd(self, b_bar: float) -> bool:
        """Inside the modulated region with b capped at b_bar."""
        return self.in_mod and self.b <= b_bar


@dataclass(frozen=True)
class Multipliers:
    """Unstable (lam > 1) and stable (mu = b/lam < 1) multiplier magnitudes."""

    lam: float
    mu: float


def apply_map(p: Params, v: Point) -> Point:
    """One step of the genuine piecewise-affine map."""
    x, y = v
    return (-p.a * abs(x) - p.b * y + (p.a - p.b - 1.0), x)


def apply_branch(p: Params, sigma: int, v: Point) -> Point:
    """One step of the formal sigma-branch, applied regardless of sign(x)."""
    x, y = v
    return (-sigma * p.a * x - p.b * y + (p.a - p.b - 1.0), x)


def apply_inverse(p: Params, v: Point) -> Point:
    """Genuine inverse step; the map is a homeomorphism only for b > 0."""
    if p.b == 0.0:
        raise NonInvertibleError("the map is not invertible at b = 0")
    x, y = v
    return (y, (-p.a * abs(y) + (p.a - p.b - 1.0) - x) / p.b)


def apply_branch_inverse(p: Params, sigma: int, v: Point) -> Point:
    """Formal inverse of the sigma-branch (b > 0)."""
    if p.b == 0.0:
        raise NonInvertibleError("branches are not invertible at b = 0")
    x, y = v
    return (y, (-sigma * p.a * y + (p.a - p.b - 1.0) - x) / p.b)


class NonInvertibleError(DomainError):
    """Point inversion requested for the degenerate (b = 0) map."""


def branch_matrix(p: Params, sigma: int) -> tuple[float, float, float, float]:
    """Row-major linear part of the sigma-branch; determinant is b."""
    return (-sigma * p.a, -p.b, 1.0, 0.0)


def fixed_points(p: Params) -> tuple[Point, Point]:
    """The two saddle fixed points z_- = (-1,-1) and z_+ on the diagonal."""
    if not p.in_full:
        raise RegionError(f"({p.a}, {p.b}) is outside the full-family region")
    zeta_plus = 1.0 - 2.0 * (p.b + 1.0) / (p.a + p.b + 1.0)
    return ((-1.0, -1.0), (zeta_plus, zeta_plus))


def multipliers(p: Params) -> Multipliers:
    """lam = (a + sqrt(a^2-4b))/2, mu = b/lam; the roots of t^2 - a t + b."""
    disc = p.a * p.a - 4.0 * p.b
    if disc < 0.0:
        raise SpectrumError(f"complex spectrum: a^2 = {p.a * p.a} < 4b = {4 * p.b}")
    lam = 0.5 * (p.a + math.sqrt(disc))
    return Multipliers(lam=lam, mu=p.b / lam)
