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
from collections.abc import Sequence
from dataclasses import dataclass

Point = tuple[float, float]

MINUS = -1
PLUS = +1


class DomainError(ValueError):
    """Input outside the domain an operation is defined on."""


class RegionError(DomainError):
    """Parameters outside the required parameter region."""


class SpectrumError(DomainError):
    """Eigenvalues are complex where real ones are required."""


class SingularSystemError(DomainError):
    """The periodic-orbit system of a sign word is numerically singular."""


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True)
class Multipliers:
    """Unstable (lam > 1) and stable (mu = b/lam < 1) multiplier magnitudes."""

    lam: float
    mu: float


def apply_map(p: Params, v: Point) -> Point:
    """One step of the genuine piecewise-affine map."""
    x, y = v
    return (-p.a * abs(x) - p.b * y + (p.a - p.b - 1.0), x)


def _require_count(name: str, value: int, least: int, most: float = math.inf) -> None:
    """Refuse `value` unless it is an int (not a bool) in [least, most]."""
    if isinstance(value, bool) or not isinstance(value, int) or not least <= value <= most:
        upper = "" if most == math.inf else f" <= {most}"
        raise DomainError(f"need an integer {least} <= {name}{upper}, got {value!r}")


def _require_index(name: str, value: int | float, least: int) -> int:
    """`value` as an int; refuses a value below `least`, a fraction, inf, NaN and a bool."""
    if isinstance(value, bool) or not value >= least or value % 1:
        raise DomainError(f"need an integer {name} >= {least}, got {value}")
    return int(value)


def _require_orders(m: int, n: int) -> None:
    """Refuse (m, n) unless m > n >= 2 are whole numbers, floats like 5.0 included."""
    if not m > n >= 2 or m % 1 or n % 1:
        raise DomainError(f"need integers m > n >= 2, got ({m!r}, {n!r})")


def _require_full(p: Params) -> None:
    """Refuse p outside the full-family region (p.in_full)."""
    if not p.in_full:
        raise RegionError(f"({p.a}, {p.b}) is outside the full-family region")


def fixed_points(p: Params) -> tuple[Point, Point]:
    """The two saddle fixed points z_- = (-1,-1) and z_+ on the diagonal."""
    _require_full(p)
    zeta_plus = 1.0 - 2.0 * (p.b + 1.0) / (p.a + p.b + 1.0)
    return ((-1.0, -1.0), (zeta_plus, zeta_plus))


def multipliers(p: Params) -> Multipliers:
    """lam = (a + sqrt(a^2-4b))/2, mu = b/lam; the roots of t^2 - a t + b.
    Once a^2 overflows lam would read inf, and DomainError is raised."""
    disc = p.a * p.a - 4.0 * p.b
    if disc < 0.0:
        raise SpectrumError(f"complex spectrum: a^2 = {p.a * p.a} < 4b = {4 * p.b}")
    lam = 0.5 * (p.a + math.sqrt(disc))
    if lam == math.inf:
        raise DomainError(f"multiplier lam overflows at ({p.a}, {p.b})")
    return Multipliers(lam=lam, mu=p.b / lam)


def cyclic_orbit(p: Params, signs: Sequence[int]) -> list[float]:
    """x_0 .. x_{N-1} of the orbit that follows the sign word: the solution
    of b x_{k-1} + s_k a x_k + x_{k+1} = a - b - 1, indices mod N, in O(N),
    by a Thomas sweep bordered by t = x_{N-1} (Numerical Recipes 2.7):
    forward from x_{-1} = t as x_k = al_k x_{k+1} + be_k t + ga_k, back from
    (S, T)_{N-1} = (1, 0) as x_k = S_k t + T_k; the last equation fixes t.
    For a > b + 1 the matrix is strictly row-diagonally dominant (N = 1, 2
    included), so no pivot vanishes; a pivot below 1e-13 or an empty word
    raises SingularSystemError.
    """
    if not signs:
        raise SingularSystemError("the empty word has no periodic orbit")
    a, b = p.a, p.b
    c = a - b - 1.0
    al, be, ga = 0.0, 1.0, 0.0
    sweep = []
    for s in signs:
        piv = s * a + b * al
        if -1e-13 < piv < 1e-13:
            _pivot(p, piv)
        al, be, ga = -1.0 / piv, -b * be / piv, (c - b * ga) / piv
        sweep.append((al, be, ga))
    S, T = 1.0, 0.0
    st = [(S, T)]
    for al, be, ga in sweep[-2::-1]:
        S, T = al * S + be, al * T + ga
        st.append((S, T))
    al, be, ga = sweep[-1]
    t = (al * T + ga) / _pivot(p, 1.0 - be - al * S)
    st.reverse()
    return [S * t + T for S, T in st]


def _pivot(p: Params, value: float) -> float:
    """value, unless it is below 1e-13 in magnitude: SingularSystemError."""
    if abs(value) < 1e-13:
        raise SingularSystemError(f"orbit system pivot {value:.1e} at ({p.a}, {p.b})")
    return value
