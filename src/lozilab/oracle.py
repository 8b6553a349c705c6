"""Brute-force verification against the genuine piecewise map.

Periodic points come from one cyclic orbit solve per necklace of sign
patterns, sharing core's cyclic solver with the symbolic formal points; a
forward-iteration check and return-map Newton over a seed grid, which use
neither, vouch for each point and for the absence of any other.
Hyperbolicity is decided on the universal cones at the rays where the
cone test can first fail, and long-run behaviour from the
trapping triangle of the left fixed point's lines.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .core import (
    DomainError,
    Params,
    Point,
    _require_count,
    _require_full,
    apply_map,
    cyclic_orbit,
    multipliers,
)
from .symbolic import sign_words

_TRAP_TOL = 1e-12
# brute_periodic's tie rule: a sign pattern holds where s_k x_k >= -_TIE
_TIE = 1e-13
# _distinct's cell side, and the reach by which a kept point is filed
_CELL = 1e-6
_REACH = 2e-7
_Cells = dict[tuple[float, float], list[Point]]


class BudgetError(DomainError):
    """Iteration budget exhausted before a classification was reached."""

    def __init__(self, message: str, last_point: Point):
        super().__init__(message)
        self.last_point = last_point


class OrbitKind(enum.Enum):
    ESCAPES_MINUS_INFINITY = "escapes"
    TRAPPED = "trapped"


@dataclass(frozen=True)
class OrbitClass:
    kind: OrbitKind
    witness: int


def orbit_signs(p: Params, v: Point, length: int) -> tuple[int, ...]:
    """Sign coding of the genuine orbit; x = 0 codes as +, and an x that
    is NaN has no sign and is refused with DomainError."""
    _require_count("length", length, 0)
    a, b = p.a, p.b
    c = a - b - 1.0
    x, y = v
    signs = []
    for _ in range(length):
        if x >= 0.0:
            signs.append(+1)
        elif x < 0.0:
            signs.append(-1)
        else:
            raise DomainError(f"the orbit meets {(x, y)!r}, whose x has no sign")
        # apply_map's operations
        x, y = -a * abs(x) - b * y + c, x
    return tuple(signs)


@functools.lru_cache(maxsize=None)
def _necklaces(period: int) -> tuple[tuple[int, ...], ...]:
    """The sign words of length `period` that come first in sign_words
    order among their rotations: a rotated word's orbit is the same orbit
    shifted, so one word per rotation class reaches every orbit."""
    words = sign_words(period)
    index = {w: j for j, w in enumerate(words)}
    return tuple(
        w for j, w in enumerate(words) if j == min(index[w[k:] + w[:k]] for k in range(period))
    )


def _return_map_newton(p: Params, seed: Point, period: int) -> Point | None:
    """Newton on v -> map^period(v) - v with the orbit's branch Jacobian.

    Each iteration maps the iterate `period` times and multiplies the
    branch matrices ((-s a, -b), (1, 0)) of the signs it meets onto J,
    first sign first, then steps with D = J - Id.  The state is the
    iterate alone, so the path from an iterate is fixed: an iterate that
    repeats bit for bit has entered a cycle that never meets the 1e-13
    stop, and gives up at once, as the 60-iteration budget would later.
    The map steps are apply_map's operations, so a root returned here
    already passes _closes' forward check.  A step lands on a
    formal point, in [-1, 1]^2, so no iterate is cut off for its size.
    """
    a, b = p.a, p.b
    c = a - b - 1.0
    x, y = seed
    seen = set()
    for _ in range(60):
        if (x, y) in seen:
            break
        seen.add((x, y))
        cx, cy = x, y
        j11, j12, j21, j22 = 1.0, 0.0, 0.0, 1.0
        for _ in range(period):
            m11 = -a if cx >= 0.0 else a
            j11, j12, j21, j22 = m11 * j11 - b * j21, m11 * j12 - b * j22, j11, j12
            cx, cy = -a * abs(cx) - b * cy + c, cx
        fx, fy = cx - x, cy - y
        if abs(fx) < 1e-13 and abs(fy) < 1e-13:
            return (x, y)
        d11, d22 = j11 - 1.0, j22 - 1.0
        det = d11 * d22 - j12 * j21
        if abs(det) < 1e-14:
            break
        x -= (fx * d22 - fy * j12) / det
        y -= (fy * d11 - fx * j21) / det
    return None


def _closes(p: Params, v: Point, period: int) -> bool:
    """Whether map^period(v), stepped by apply_map's operations, is within
    1e-10 of v; a NaN difference fails the test."""
    a, b = p.a, p.b
    c = a - b - 1.0
    x, y = v
    for _ in range(period):
        x, y = -a * abs(x) - b * y + c, x
    return abs(x - v[0]) <= 1e-10 and abs(y - v[1]) <= 1e-10


def _distinct(
    roots: Iterable[Point], accept: Callable[[Point], bool]
) -> tuple[list[Point], _Cells]:
    """The roots, in order, each kept if no kept point is within 1e-7 in
    the max norm and then `accept` holds (tested only for such a root);
    and the index of the kept points, for _near_kept lookups.

    A kept q is filed under each square cell of side 1e-6 that the box
    [q - 2e-7, q + 2e-7]^2 meets (1, 2 or 4); a point within 1e-7 of q lies
    1e-7 inside that box, a margin for rounding, so its own cell is one of
    them, and past |q| ~ 1e9 such a point is q.  A NaN index matches none.
    """
    kept: list[Point] = []
    cells: _Cells = {}
    for root in roots:
        x, y = root
        if _near_kept(cells, x, y) or not accept(root):
            continue
        kept.append(root)
        for i in {(x - _REACH) // _CELL, (x + _REACH) // _CELL}:
            for j in {(y - _REACH) // _CELL, (y + _REACH) // _CELL}:
                cells.setdefault((i, j), []).append(root)
    return kept, cells


def _near_kept(cells: _Cells, x: float, y: float) -> bool:
    """Whether a kept point is within 1e-7 of (x, y), read from its one cell."""
    for qx, qy in cells.get((x // _CELL, y // _CELL), ()):
        if abs(x - qx) <= 1e-7 and abs(y - qy) <= 1e-7:
            return True
    return False


@functools.lru_cache(maxsize=4)
def _seed_grid(grid_n: int) -> tuple[Point, ...]:
    """The sheared seed lattice on [-2, 2]^2: grid_n^2 distinct abscissas,
    so the seeds stay effective when b = 0 collapses the dynamics onto the
    x-coordinate."""
    return tuple(
        (-2.0 + 4.0 * (i * grid_n + j + 0.5) / grid_n**2, -2.0 + 4.0 * j / (grid_n - 1))
        for i in range(grid_n)
        for j in range(grid_n)
    )


# A call at depth d looks up depth d - 1 only, so two entries let an
# ascending sweep of periods at one parameter and grid step each seed once
# per period; other orders can step from the lattice again.
@functools.lru_cache(maxsize=2)
def _seed_orbits(a: float, b: float, grid_n: int, depth: int) -> tuple[list, list, list[int]]:
    """Each seed of _seed_grid(grid_n) after `depth` map steps, in grid
    order: its x, its y, and its key, the first `depth` signs of its orbit
    as bits, first sign highest, 1 for x >= 0.  The lists are shared by the
    cache and never mutated."""
    if depth == 0:
        seeds = _seed_grid(grid_n)
        return [v[0] for v in seeds], [v[1] for v in seeds], [0] * len(seeds)
    xs, ys, keys = _seed_orbits(a, b, grid_n, depth - 1)
    c = a - b - 1.0
    keys = [2 * key + (x >= 0.0) for key, x in zip(keys, xs)]
    return [-a * abs(x) - b * y + c for x, y in zip(xs, ys)], xs, keys


def brute_periodic(p: Params, period: int, grid_n: int) -> list[Point]:
    """All points with map^period(v) = v, checked by forward iteration and
    sorted; a grid Newton root that the result misses raises DomainError.

    The result is the pattern search: one core.cyclic_orbit solve per
    necklace (_necklaces), keeping every cyclic shift of each orbit whose
    sign pattern holds.  For a > b + 1 every pattern's cyclic system is
    strictly diagonally dominant, so that solve is the one orbit with that
    pattern, and every orbit whose period divides `period` solves some
    pattern: a period-d orbit also solves the repeated one; a pivot below
    1e-13 raises SingularSystemError.  At a border collision an orbit point
    sits at x = 0, on both patterns that differ there, and rounding can put
    it on the wrong side in both solves; the tie rule s_k x_k >= -_TIE lets
    both pass.  Roots are deduplicated at 1e-7 (_distinct) and each is
    checked by forward iteration.

    The grid is a uniqueness check that does not rest on this argument.
    map^period is affine on each cell of seeds of a sheared grid on
    [-2, 2]^2 whose first `period` signs agree (one key of _seed_orbits), so
    return-map Newton runs once per cell, from its first seed, in grid
    order (one forward scan).  Each root is looked up in the result's own
    dedup index (_near_kept), and the first one farther than 1e-7 from
    every point of the result raises DomainError; a failed run costs nothing.
    """
    _require_full(p)
    _require_count("period", period, 1, 10)
    _require_count("grid_n", grid_n, 2)
    roots: list[Point] = []
    for signs in _necklaces(period):
        xs = cyclic_orbit(p, signs)
        if all(s * x >= -_TIE for x, s in zip(xs, signs)):
            roots.extend((xs[k], xs[k - 1]) for k in range(period))
    points, cells = _distinct(roots, lambda v: _closes(p, v, period))
    keys, seeds, i = _seed_orbits(p.a, p.b, grid_n, period)[2], _seed_grid(grid_n), -1
    # in order of first seeds, so each key's first seed follows the last one's
    for key in dict.fromkeys(keys):
        i = keys.index(key, i + 1)
        root = _return_map_newton(p, seeds[i], period)
        if root is not None and not _near_kept(cells, *root):
            raise DomainError(
                f"grid Newton root {root!r} of period {period} at "
                f"({p.a}, {p.b}) is not a point of the pattern search"
            )
    points.sort()
    return points


def cone_check(p: Params) -> bool:
    """Whether both universal cones are invariant and expanded, decided by
    the cone test at the rays where it can first fail.

    Expanding cone |y| <= |x|/lam: both branch derivatives keep it and
    grow the L1/L2/Linf norms by >= lam (slack 1e-12).  Contracting cone
    |x| <= (b/lam)|y|: both inverse derivatives keep it and grow norms by
    >= lam/b = 1/mu.  The contracting side degenerates to the y-axis at
    b = 0 and is skipped there.  Multipliers a float cannot hold (lam
    overflows, or mu underflows to 0.0 at b > 0) raise DomainError.

    Every test is homogeneous and reads magnitudes only, and is
    nondecreasing in the branch image, so each side is decided on the rays
    (1, u), 0 <= u <= h, by the smaller branch image (W(u), 1) (the
    inverse side's rays (u, 1) swapped; the norms are symmetric): forward
    h = 1/lam and W = |a - b u|, inverse h = mu and W = |a - u|/b, so that
    k h = 1 for the growth k, lam or 1/mu.  As k u <= 1, the cone test
    W >= k gives all three norm tests: W + 1 >= k (1 + u), max(W, 1) >=
    k max(1, u) and W^2 + 1 >= k^2 (1 + u^2), and so at the norms' factor
    k (1 - 1e-12) for W >= k (1 - 1e-15).  The cone test is convex in u,
    as W is, so it is least at an end or at W's kink.  Hence a side holds
    on all of [0, h] iff it holds at 0, at h and at the kink when it lies
    inside; for the true multipliers it lies outside (a/b > 1/lam forward,
    a > mu inverse), and only the edge rays run, where W is k + mu and k
    forward (k + 1/lam and k inverse) to rounding, far above k/(1 + 1e-12).
    """
    _require_full(p)
    mult = multipliers(p)
    a, b, lam, mu = p.a, p.b, mult.lam, mult.mu
    if lam == math.inf or (mu == 0.0 and b > 0.0):
        cause = "lam overflows" if lam == math.inf else "mu = b/lam underflows to 0.0"
        raise DomainError(f"multiplier {cause} at ({a}, {b})")
    return _rays_hold(a, b, 1.0, 1.0 / lam, lam) and (
        b == 0.0 or _rays_hold(a, 1.0, b, mu, 1.0 / mu)
    )


def _rays_hold(a: float, c: float, d: float, h: float, k: float) -> bool:
    """Whether each ray (1, u), 0 <= u <= h, has its image (W, 1), W = |a -
    c u|/d, in the cone W >= k, slack 1e-12, tested at the ends and at W's
    kink a/c (none at c = 0) when inside (cone_check)."""
    for u in (0.0, h, a / c if c else math.inf):
        if 0.0 <= u <= h and k > abs(a - c * u) / d * (1.0 + 1e-12):
            return False
    return True


def classify_orbit(p: Params, v: Point, max_iter: int = 100_000) -> OrbitClass:
    """Iterate until the orbit certifies escape or trapping.

    The left fixed point's trapping triangle has sides chi: x = mu*(y+1) - 1
    (stable line), phi1: y = (x+1)/lam - 1 (unstable line) and phi2, the
    plus-branch image of phi1, through (lam-1, 0) with slope -1/(a+mu).
    Escape: the orbit enters the forward-invariant wedge left of chi (or
    falls below -1e10, the numeric fallback).  Trapping: the orbit stays in
    the closed triangle for 100 consecutive steps, or revisits a streak
    point to within 1e-9 (a pseudo-cycle inside the triangle; saddle orbits
    drift off the exact cycle long before 100 steps, so plain streak
    counting would misread them).  The witness is the first step of the
    certifying streak.  A start point that is not finite (a NaN one meets
    no certificate) raises DomainError; the triangle closes for every p in
    the full family, as chi crosses the y-axis at lam/b - 1 > phi2's y.
    """
    if not (math.isfinite(v[0]) and math.isfinite(v[1])):
        raise DomainError(f"start point {v!r} is not finite")
    _require_count("max_iter", max_iter, 0)
    _require_full(p)
    mult = multipliers(p)
    mu, lam = mult.mu, mult.lam
    u_inf, slope = lam - 1.0, -1.0 / (p.a + mu)
    streak_start = -1
    streak_points: list[Point] = []
    for i in range(max_iter + 1):
        x, y = v
        chi = mu * (y + 1.0) - 1.0
        # open wedge, with a strict margin so float noise on chi is not escape
        if (x < chi - _TRAP_TOL and x < 0.0) or x < -1e10:
            return OrbitClass(kind=OrbitKind.ESCAPES_MINUS_INFINITY, witness=i)
        if (
            x >= chi - _TRAP_TOL
            and y >= (x + 1.0) / lam - 1.0 - _TRAP_TOL
            and y <= slope * (x - u_inf) + _TRAP_TOL
        ):
            if streak_start < 0:
                streak_start, streak_points = i, []
            if i - streak_start + 1 >= 100 or any(
                abs(x - w[0]) <= 1e-9 and abs(y - w[1]) <= 1e-9 for w in streak_points
            ):
                return OrbitClass(kind=OrbitKind.TRAPPED, witness=streak_start)
            streak_points.append(v)
        else:
            streak_start = -1
        v = apply_map(p, v)
    raise BudgetError(f"no classification within {max_iter} iterations", v)
