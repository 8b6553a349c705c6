"""Backward iteration of lines, fold abscissas, and the critical-value /
stable-trace ladders.

Two line shapes are tracked, each by one word loop.  `_push_word` carries
a line y = s*x + k; a branch step divides by d = b*s + sigma*a and sends
(s, k) to (-1/d, (a-b-1 - b*k)/d).  `_pull_word` carries a near-vertical
line x = t*y + c; an inverse-branch step divides by d = t + sigma*a and
sends (t, c) to (-b/d, (a-b-1 - c)/d).  Both refuse |d| < 1e-13 (the
excluded slope).  Every line iteration in the package runs through them;
each ladder (r_m, or u_m with u_inf - u_m) is swept by one loop over them.
They do not check their symbols; the public iterate_line_bwd and
stable_line refuse a symbol other than +-1 with ItineraryError, once per
call.
Under a repeated branch the slope soon stops changing as a float; while
the symbol keeps repeating, a step then reuses the last checked d, the
very float it would recompute, and moves only k or c.  The words built
here hold the symbols as the floats +-1.0, so a step multiplies floats.
The trace recursion is exact for every b >= 0, so the degenerate tent case
needs no separate code path, and it avoids the 1/b blow-up that mapping an
anchor point through explicit branch inverses would produce.
"""

from __future__ import annotations

import functools
import math
import typing
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
from .symbolic import Itinerary, _require_symbols

_EXCLUDED_TOL = 1e-13


class SlopeError(DomainError):
    """A line iteration hit the excluded (vertical-image) slope."""


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


def _push_word(p: Params, word: Itinerary, slope: float, k: float) -> tuple[float, float]:
    """Push the line (slope, k), with (0, k) on it, through the branches
    of `word`, first symbol first.  A symbol repeated after a step that
    left the slope unchanged reuses that step's denominator: only k moves."""
    a, b, tol = p.a, p.b, _EXCLUDED_TOL
    c0 = a - b - 1.0
    # the symbol of a step that left the slope unchanged; compared by
    # identity, so an equal symbol that is another object takes a full step
    fixed = None
    for sigma in word:
        if sigma is not fixed:
            denom = b * slope + sigma * a
            if -tol < denom < tol:
                raise SlopeError(f"slope {slope} maps to a vertical line under branch {sigma:+.0f}")
            new = -1.0 / denom
            fixed = sigma if new == slope else None
            slope = new
        k = (c0 - b * k) / denom
    return slope, k


def _pull_word(p: Params, word: Itinerary, vslope: float, c: float) -> tuple[float, float]:
    """Pull the near-vertical line (vslope, c), with (c, 0) on it, through
    the inverse branches of `word`, last symbol first.  As in _push_word,
    a fixed vslope's denominator is reused while its symbol repeats."""
    a, b, tol = p.a, p.b, _EXCLUDED_TOL
    c0 = a - b - 1.0
    fixed = None
    for sigma in reversed(word):
        if sigma is not fixed:
            denom = vslope + sigma * a
            if -tol < denom < tol:
                raise SlopeError(f"vslope {vslope} is excluded under inverse branch {sigma:+.0f}")
            new = -b / denom
            fixed = sigma if new == vslope else None
            vslope = new
        c = (c0 - c) / denom
    return vslope, c


def _fold(p: Params, word: Itinerary, slope: float, k: float) -> float:
    """Fold abscissa of the full-map image of the (slope, k) line pushed
    through `word`: both branches send (0, k) to ((a-b-1) - b*k, 0)."""
    return (p.a - p.b - 1.0) - p.b * _push_word(p, word, slope, k)[1]


def iterate_line_bwd(p: Params, word: Itinerary, line: BwdLine) -> BwdLine:
    """Pull a near-vertical line back through the forward word `word`.

    Inverse branches apply right-to-left of the word, so the result is the
    preimage of `line` under the word's branch composition.  The returned
    line is re-anchored at its x-axis trace (same line, stable arithmetic,
    and well defined in the noninvertible case b = 0).
    """
    word = tuple(word)
    _require_symbols(word)
    vslope, c = _pull_word(p, word, line.vslope, line.trace)
    return BwdLine(vslope=vslope, anchor=(c, 0.0))


def stable_line(p: Params, sigma: int) -> BwdLine:
    """Carrier line of the local stable manifold of the sigma fixed point."""
    _require_symbols((sigma,))
    z_minus, z_plus = fixed_points(p)
    z = z_plus if sigma == PLUS else z_minus
    mu = multipliers(p).mu
    return BwdLine(vslope=-sigma * mu, anchor=z)


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
    """A finite ladder index m as an int; rejects m < least, fractions and bools."""
    if isinstance(m, bool) or not m >= least or m % 1:
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
    word = (1.0,) + (-1.0,) * (_ladder_index(m, 1) - 1)
    line = stable_line(p, PLUS)
    return _pull_word(p, word, line.vslope, line.trace)[1]


def _r_ladder(p: Params, m_max: int) -> typing.Iterator[tuple[float, float, float, float]]:
    """beta_j + gamma_j, j = 0 .. m_max - 1, as (vslope, trace) pairs: z_+'s stable
    line pulled back through j minus branches, then through +.  One kernel step a
    pullback, so gamma_j's trace is r_{j+1}, bit for bit r_value(p, j + 1)."""
    _require_mod(p)
    m_max = _ladder_index(m_max, 1)
    line = stable_line(p, PLUS)
    beta = (line.vslope, line.trace)
    for j in range(m_max):
        if j:
            beta = _pull_word(p, (MINUS,), *beta)
        yield beta + _pull_word(p, (PLUS,), *beta)


def u_value(p: Params, m: int | float, side: str) -> float:
    """Fold abscissa of the m-th image ladder, left or right boundary.

    The m-th folded image of the horizontal boundary y = -1 (side "L") or
    y = +1 (side "R") of the invariant band; m = inf gives the x-axis
    crossing lam - 1 of the left fixed point's unstable line.  A finite m
    reads the last rung of _u_ladder.
    """
    if m == math.inf:
        _side_sign(p, side)
        return multipliers(p).lam - 1.0
    return list(_u_ladder(p, side, m))[-1][0]


def boundary_turning_points(p: Params) -> tuple[float, float]:
    """(u_left, u_right) = (a-2b-1, a-1): folds of the band boundaries."""
    return (p.a - 2.0 * p.b - 1.0, p.a - 1.0)


def u_gap(p: Params, m: int, side: str) -> float:
    """u_value(p, inf, side) - u_value(p, m, side), cancellation-free (_u_ladder)."""
    return list(_u_ladder(p, side, m))[-1][1]


def _u_ladder(p: Params, side: str, m_max: int) -> typing.Iterator[tuple[float, float]]:
    """(u_value, u_gap)(p, m, side) for m = 2 .. m_max, bit for bit; one kernel step a rung.

    The gap scales like (b/lam)^(m-1), which underflows the float
    resolution of the fold values themselves for small b; this form keeps
    full relative accuracy by propagating the slope gap e_j = 1/lam - s_j
    and crossing gap d_j = k_j - k_inf through positive-term recursions.
    """
    sigma0 = float(_side_sign(p, side))
    m_max = _ladder_index(m_max, 2)
    a, b = p.a, p.b
    lam = multipliers(p).lam
    s, k = _push_word(p, (PLUS,), 0.0, sigma0)
    e = 1.0 / lam + 1.0 / a
    d = k - (1.0 - lam) / lam
    for m in range(2, m_max + 1):
        if m > 2:
            denom = a - b * s
            d = b * ((lam - 1.0) * e + lam * d) / (denom * lam)
            e = e * b / (denom * lam)
            s, k = _push_word(p, (MINUS,), s, k)
        yield (a - b - 1.0) - b * k, b * d


@functools.lru_cache(maxsize=256)
def _return_word(m: int | float, n: int | float) -> Itinerary:
    """(+, -^(m-2), +, +, -^(n-2)), built once per (m, n); refuses m and n
    unless both are whole numbers >= 2 (a refusal is not cached)."""
    m = _ladder_index(m, 2)
    if not n >= 2 or n % 1:
        raise DomainError(f"need an integer n >= 2, got {n}")
    return (1.0,) + (-1.0,) * (m - 2) + (1.0, 1.0) + (-1.0,) * (int(n) - 2)


def p_value(p: Params, m: int | float, n: int) -> float:
    """Fold abscissa of the (m+n)-step image of the x-axis.

    The x-axis is pushed through (+, -^(m-2), +, +, -^(n-2)) and the final
    full-map application folds the image; the fold abscissa is returned.
    m = inf replaces the first m-dependent block by the unstable line
    y = s*x + s - 1, s = 1/lam, of the left fixed point, the limit object
    of that block.
    """
    _require_mod(p)
    if m == math.inf:
        s = 1.0 / multipliers(p).lam
        return _fold(p, _return_word(2, n)[1:], s, s - 1.0)
    return (p.a - p.b - 1.0) - p.b * _push_word(p, _return_word(m, n), 0.0, 0.0)[1]


def q_value(p: Params, m: int, n: int) -> float:
    """x-axis trace of the critical-locus pullback through the return word.

    The switching line x = 0 is pulled back through (+, -^(m-2), +, +,
    -^(n-2)); the resulting near-vertical line crosses the x-axis at the
    unique point whose forward word-orbit lands on the switching line.
    """
    _require_mod(p)
    return _pull_word(p, _return_word(m, n), 0.0, 0.0)[1]
