"""Forward and backward iteration of lines, fold abscissas, and the
critical-value / stable-trace ladders.

Two line shapes are tracked.  A forward line y = s*(x - x0) + y0 carries
the slope s; one branch step sends s to -1/(b*s + sigma*a) and any point
through the branch.  A backward (near-vertical) line x = t*(y - y0) + x0
carries the vertical slope t; one inverse-branch step sends t to
-b/(t + sigma*a) and the x-axis trace c to (a - b - 1 - c)/(sigma*a + t).
The trace recursion is exact for every b >= 0, so the degenerate tent case
needs no separate code path, and it avoids the 1/b blow-up that mapping an
anchor point through explicit branch inverses would produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    MINUS,
    PLUS,
    DomainError,
    Params,
    Point,
    RegionError,
    fixed_points,
    multipliers,
)
from .symbolic import Itinerary

_EXCLUDED_TOL = 1e-13


class SlopeError(DomainError):
    """A line iteration hit the excluded (vertical-image) slope."""


@dataclass(frozen=True)
class FwdLine:
    """Non-vertical line through `anchor` with slope dy/dx = `slope`."""

    slope: float
    anchor: Point

    def y_at(self, x: float) -> float:
        return self.anchor[1] + self.slope * (x - self.anchor[0])


@dataclass(frozen=True)
class BwdLine:
    """Near-vertical line through `anchor` with vertical slope dx/dy."""

    vslope: float
    anchor: Point

    def x_at(self, y: float) -> float:
        return self.anchor[0] + self.vslope * (y - self.anchor[1])

    @property
    def trace(self) -> float:
        """x-axis intersection."""
        return self.x_at(0.0)


def _push(p: Params, sigma: int, slope: float, k: float) -> tuple[float, float]:
    """One forward branch step on (slope, k) where (0, k) is on the line."""
    denom = p.b * slope + sigma * p.a
    if abs(denom) < _EXCLUDED_TOL:
        raise SlopeError(f"slope {slope} maps to a vertical line under branch {sigma:+d}")
    return -1.0 / denom, (p.a - p.b - 1.0 - p.b * k) / denom


def _pull(p: Params, sigma: int, vslope: float, c: float) -> tuple[float, float]:
    """One inverse branch step on (vslope, c) where (c, 0) is on the line."""
    denom = vslope + sigma * p.a
    if abs(denom) < _EXCLUDED_TOL:
        raise SlopeError(f"vslope {vslope} is excluded under inverse branch {sigma:+d}")
    return -p.b / denom, (p.a - p.b - 1.0 - c) / denom


def _fold(p: Params, word: Itinerary, slope: float, k: float) -> float:
    """Fold abscissa of the full-map image of the (slope, k) line pushed
    through `word`: both branches send (0, k) to ((a-b-1) - b*k, 0)."""
    for sigma in word:
        slope, k = _push(p, sigma, slope, k)
    return (p.a - p.b - 1.0) - p.b * k


def _pull_word(p: Params, word: Itinerary, vslope: float, c: float) -> tuple[float, float]:
    """_pull through the inverse branches of `word`, last symbol first."""
    for sigma in reversed(word):
        vslope, c = _pull(p, sigma, vslope, c)
    return vslope, c


def slope_fwd(p: Params, sigma: int, slope: float) -> float:
    """Slope of the sigma-branch image of a line with the given slope."""
    return _push(p, sigma, slope, 0.0)[0]


def slope_bwd(p: Params, sigma: int, vslope: float) -> float:
    """Vertical slope of the sigma-branch preimage of a near-vertical line."""
    return _pull(p, sigma, vslope, 0.0)[0]


def iterate_line_fwd(p: Params, word: Itinerary, line: FwdLine) -> FwdLine:
    """Push a line through the branches named by `word`, first symbol first.

    The returned line is re-anchored at its y-axis crossing (0, k).
    """
    slope, k = line.slope, line.y_at(0.0)
    for sigma in word:
        slope, k = _push(p, sigma, slope, k)
    return FwdLine(slope=slope, anchor=(0.0, k))


def iterate_line_bwd(p: Params, word: Itinerary, line: BwdLine) -> BwdLine:
    """Pull a near-vertical line back through the forward word `word`.

    Inverse branches apply right-to-left of the word, so the result is the
    preimage of `line` under the word's branch composition.  The returned
    line is re-anchored at its x-axis trace (same line, stable arithmetic,
    and well defined in the noninvertible case b = 0).
    """
    vslope, c = _pull_word(p, word, line.vslope, line.trace)
    return BwdLine(vslope=vslope, anchor=(c, 0.0))


def turning_point(p: Params, line: FwdLine) -> float:
    """Fold abscissa of the full-map image of a line crossing x = 0."""
    return _fold(p, (), line.slope, line.y_at(0.0))


def stable_line(p: Params, sigma: int) -> BwdLine:
    """Carrier line of the local stable manifold of the sigma fixed point."""
    z_minus, z_plus = fixed_points(p)
    z = z_plus if sigma == PLUS else z_minus
    mu = multipliers(p).mu
    return BwdLine(vslope=-sigma * mu, anchor=z)


def unstable_line(p: Params, sigma: int) -> FwdLine:
    """Carrier line of the local unstable manifold of the sigma fixed point."""
    z_minus, z_plus = fixed_points(p)
    z = z_plus if sigma == PLUS else z_minus
    lam = multipliers(p).lam
    return FwdLine(slope=-sigma / lam, anchor=z)


def _require_mod(p: Params) -> None:
    if not p.in_mod:
        raise RegionError(f"({p.a}, {p.b}) is outside the partition region a > 3b+1")


def _side_sign(p: Params, side: str) -> int:
    """Sign of the band boundary y = -1 (side "L") or y = +1 (side "R")."""
    _require_mod(p)
    if side not in ("L", "R"):
        raise DomainError(f"side must be 'L' or 'R', got {side!r}")
    return MINUS if side == "L" else PLUS


def _ladder_index(m: int | float, least: int) -> int:
    """A finite ladder index m as an int; rejects m < least and fractions."""
    if not m >= least or m % 1:
        raise DomainError(f"need an integer m >= {least}, got {m}")
    return int(m)


# Bracket constants for the trace ladder r_inf - r_m in (C_RL, C_RU)/lam^m
# and the fold ladder u_inf - u_m in (C_UL, C_UU)*(1 - lam^(1-m))*lam*(b/lam)^(m-1),
# all valid on a > 3b+1.  C_UU folds in the slope-convergence constant
# SLOPE_C = (64/7)ln2 and the bound b/lam^2 < 1/8 via (1 - lam^(1-m))^{-1} b/lam^2 < 5/8.
SLOPE_C = (64.0 / 7.0) * math.log(2.0)
C_RL = 0.2
C_RU = 2.25
C_UL = 0.25
C_UU = 2.0 * (1.0 + (SLOPE_C + 1.5) * (5.0 / 8.0))


def r_value(p: Params, m: int | float) -> float:
    """x-axis trace of the m-th stable pullback (m = inf gives the limit).

    The trace ladder starts at the local stable line of the right fixed
    point and pulls back through one minus branch per generation and a
    final plus branch.
    """
    _require_mod(p)
    if m == math.inf:
        mult = multipliers(p)
        return 1.0 - (mult.lam + 2.0) / (p.a * mult.lam + p.b) * p.b
    word = (PLUS,) + (MINUS,) * (_ladder_index(m, 1) - 1)
    return iterate_line_bwd(p, word, stable_line(p, PLUS)).trace


def u_value(p: Params, m: int | float, side: str) -> float:
    """Fold abscissa of the m-th image ladder, left or right boundary.

    The m-th folded image of the horizontal boundary y = -1 (side "L") or
    y = +1 (side "R") of the invariant band; m = inf gives the x-axis
    crossing lam - 1 of the left fixed point's unstable line.
    """
    sigma0 = _side_sign(p, side)
    if m == math.inf:
        return multipliers(p).lam - 1.0
    word = (PLUS,) + (MINUS,) * (_ladder_index(m, 2) - 2)
    return _fold(p, word, 0.0, float(sigma0))


def boundary_turning_points(p: Params) -> tuple[float, float]:
    """(u_left, u_right) = (a-2b-1, a-1): folds of the band boundaries."""
    return (p.a - 2.0 * p.b - 1.0, p.a - 1.0)


def u_gap(p: Params, m: int, side: str) -> float:
    """u_value(p, inf, side) - u_value(p, m, side), cancellation-free.

    The gap scales like (b/lam)^(m-1), which underflows the float
    resolution of the fold values themselves for small b; this form keeps
    full relative accuracy by propagating the slope gap e_j = 1/lam - s_j
    and crossing gap d_j = k_j - k_inf through positive-term recursions.
    """
    sigma0 = float(_side_sign(p, side))
    m = _ladder_index(m, 2)
    lam = multipliers(p).lam
    s = -1.0 / p.a
    e = 1.0 / lam + 1.0 / p.a
    d = (p.a - p.b - 1.0 - p.b * sigma0) / p.a - (1.0 - lam) / lam
    for _ in range(m - 2):
        denom = p.a - p.b * s
        d = p.b * ((lam - 1.0) * e + lam * d) / (denom * lam)
        e = e * p.b / (denom * lam)
        s = -1.0 / (p.b * s - p.a)
    return p.b * d


def _return_word(m: int, n: int) -> Itinerary:
    return (PLUS,) + (MINUS,) * (m - 2) + (PLUS, PLUS) + (MINUS,) * (n - 2)


def p_value(p: Params, m: int | float, n: int) -> float:
    """Fold abscissa of the (m+n)-step image of the x-axis.

    The x-axis is pushed through (+, -^(m-2), +, +, -^(n-2)) and the final
    full-map application folds the image; the fold abscissa is returned.
    m = inf replaces the first m-dependent block by the unstable line of
    the left fixed point, the limit object of that block.
    """
    _require_mod(p)
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if m == math.inf:
        line = unstable_line(p, MINUS)
        slope, k = line.slope, line.y_at(0.0)
        word: Itinerary = (PLUS, PLUS) + (MINUS,) * (n - 2)
    else:
        slope, k = 0.0, 0.0
        word = _return_word(_ladder_index(m, 2), n)
    return _fold(p, word, slope, k)


def q_value(p: Params, m: int, n: int) -> float:
    """x-axis trace of the critical-locus pullback through the return word.

    The switching line x = 0 is pulled back through (+, -^(m-2), +, +,
    -^(n-2)); the resulting near-vertical line crosses the x-axis at the
    unique point whose forward word-orbit lands on the switching line.
    """
    _require_mod(p)
    if m < 2 or n < 2:
        raise DomainError(f"need m, n >= 2, got ({m}, {n})")
    return _pull_word(p, _return_word(m, n), 0.0, 0.0)[1]


@dataclass(frozen=True)
class CriticalData:
    """Trace and fold ladders for one parameter pair.

    r[m] increases to r_inf; u_l[m] and u_r[m] converge to u_inf; the band
    boundary folds u_left <= everything <= u_right bracket the ladder.
    """

    u_left: float
    u_right: float
    u_inf: float
    r_inf: float
    r: dict[int, float]
    u_l: dict[int, float]
    u_r: dict[int, float]


def critical_data(p: Params, m_max: int) -> CriticalData:
    _require_mod(p)
    u_left, u_right = boundary_turning_points(p)
    return CriticalData(
        u_left=u_left,
        u_right=u_right,
        u_inf=u_value(p, math.inf, "L"),
        r_inf=r_value(p, math.inf),
        r={m: r_value(p, m) for m in range(1, m_max + 1)},
        u_l={m: u_value(p, m, "L") for m in range(2, m_max + 1)},
        u_r={m: u_value(p, m, "R") for m in range(2, m_max + 1)},
    )
