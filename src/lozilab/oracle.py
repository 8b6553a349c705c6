"""Brute-force verification against the genuine piecewise map.

Periodic points come from two independent searches: return-map Newton over
a seed grid, and one full-orbit solve per sign-pattern cell, which shares
core's cyclic solver with the symbolic formal points; the grid search and
the forward-iteration check every root passes do not use that solver.
Hyperbolicity estimates come from the universal cones, and long-run
behaviour from the trapping triangle of the left fixed point's lines.
"""

from __future__ import annotations

import enum
import functools
import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .core import (
    DomainError,
    Params,
    Point,
    RegionError,
    SingularSystemError,
    apply_map,
    cyclic_orbit,
    multipliers,
)
from .symbolic import sign_words

_TRAP_TOL = 1e-12
# _distinct's cell side and search order, own cell first
_CELL = 1e-6
_NEIGHBOURS = ((0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


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
    """Sign coding of the genuine orbit; x = 0 codes as +."""
    signs = []
    for _ in range(length):
        signs.append(+1 if v[0] >= 0.0 else -1)
        v = apply_map(p, v)
    return tuple(signs)


def _pattern_orbit(p: Params, signs: tuple[int, ...]) -> list[float] | None:
    """The orbit of x_{k+1} + a|x_k| + b x_{k-1} = a - b - 1 with the sign
    pattern `signs`, or None: the system is linear within a pattern, so
    one core.cyclic_orbit solve gives the only candidate, kept if its
    pattern holds."""
    try:
        xs = cyclic_orbit(p, signs)
    except SingularSystemError:
        return None
    return xs if all((x >= 0.0) == (s > 0) for x, s in zip(xs, signs)) else None


def _return_map_newton(
    p: Params, seed: Point, period: int, jacobians: dict[int, tuple[float, ...]]
) -> Point | None:
    """Newton on v -> map^period(v) - v with the orbit's branch Jacobian.

    Each iteration maps the iterate `period` times and codes the signs it
    meets as the bits of `key`, first sign highest; only an iteration that
    steps looks up D = J - Id and det D, which `jacobians` (one dict per
    `brute_periodic` call, so a and b are fixed) holds once per sign word.
    The state is the iterate alone, so an iterate that repeats bit for bit
    has entered a cycle that never meets the 1e-13 stop: it gives up at
    once, as the 60-iteration budget would later.
    """
    a, b = p.a, p.b
    c = a - b - 1.0
    x, y = seed
    seen = set()
    for _ in range(60):
        if (x, y) in seen:
            return None
        seen.add((x, y))
        cx, cy, key = x, y, 0
        for _ in range(period):
            key = 2 * key + (cx >= 0.0)
            cx, cy = -a * abs(cx) - b * cy + c, cx
        fx, fy = cx - x, cy - y
        if abs(fx) < 1e-13 and abs(fy) < 1e-13:
            return (x, y)
        d = jacobians.get(key)
        if d is None:
            d = jacobians[key] = _jacobian(a, b, key, period)
        d11, d12, d21, d22, det = d
        if abs(det) < 1e-14:
            return None
        x -= (fx * d22 - fy * d12) / det
        y -= (fy * d11 - fx * d21) / det
        if abs(x) > 1e6 or abs(y) > 1e6:
            return None
    return None


def _jacobian(a: float, b: float, key: int, period: int) -> tuple[float, ...]:
    """(D, det D) for D = J - Id, J the product of the branch matrices
    ((-s a, -b), (1, 0)) of the sign word coded by `key`, first sign in
    the highest of `period` bits (1 for x >= 0)."""
    j11, j12, j21, j22 = 1.0, 0.0, 0.0, 1.0
    for k in range(period - 1, -1, -1):
        s = +1.0 if key >> k & 1 else -1.0
        m11, m12 = -s * a, -b
        j11, j12, j21, j22 = m11 * j11 + m12 * j21, m11 * j12 + m12 * j22, j11, j12
    d11, d12, d21, d22 = j11 - 1.0, j12, j21, j22 - 1.0
    return d11, d12, d21, d22, d11 * d22 - d12 * d21


def _verified_root(p: Params, v: Point, period: int) -> Point | None:
    w = v
    for _ in range(period):
        w = apply_map(p, w)
    # written so that a NaN difference fails the test
    if not (abs(w[0] - v[0]) <= 1e-10 and abs(w[1] - v[1]) <= 1e-10):
        return None
    return v


def _distinct(roots: Iterable[Point], accept: Callable[[Point], bool]) -> list[Point]:
    """The roots, in order, each kept if no kept point is within 1e-7 in
    the max norm and `accept` holds.

    A root equal to one already seen is dropped at once: had the first
    been kept, or merged into a kept point, the repeat merges too, since
    kept points stay kept; had it been rejected, `accept` rejects the
    repeat again.  The others are checked against kept points indexed by
    square cells of side 1e-6, ten times the merge distance, so a point
    within 1e-7 lies in the root's own cell or one of its 8 neighbours
    whatever the rounding of the cell index.  Float floor division gives
    non-finite coordinates a NaN index, which matches no cell.
    """
    kept: list[Point] = []
    cells: dict[tuple[float, float], list[Point]] = {}
    seen: set[Point] = set()
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        x, y = root
        i, j = x // _CELL, y // _CELL
        if _near_kept(cells, i, j, x, y) or not accept(root):
            continue
        kept.append(root)
        cells.setdefault((i, j), []).append(root)
    return kept


def _near_kept(
    cells: dict[tuple[float, float], list[Point]], i: float, j: float, x: float, y: float
) -> bool:
    """Whether a point in cell (i, j) or a neighbour is within 1e-7 of (x, y)."""
    for di, dj in _NEIGHBOURS:
        for qx, qy in cells.get((i + di, j + dj), ()):
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


def brute_periodic(p: Params, period: int, grid_n: int) -> list[Point]:
    """All points with map^period(v) = v, Newton-refined and verified.

    Two independent searches: return-map Newton from every seed of a
    sheared grid on [-2, 2]^2, and one cyclic solve per sign pattern,
    keeping every cyclic shift of each orbit whose pattern holds.  For
    a > b + 1 every pattern's cyclic system is strictly diagonally
    dominant (see core.cyclic_orbit), so that solve is the one orbit with
    that pattern, and the pattern search alone reaches every orbit whose
    period divides `period`: a period-d orbit also solves the repeated
    pattern.  The grid search stays as the one path that does not rest on
    this argument.  Roots are deduplicated at 1e-7, checked by forward
    iteration, and sorted.
    """
    if not p.in_full:
        raise RegionError(f"({p.a}, {p.b}) is outside the full-family region")
    if not 1 <= period <= 10:
        raise DomainError(f"need 1 <= period <= 10, got {period}")
    if grid_n < 2:
        raise DomainError(f"need grid_n >= 2, got {grid_n}")
    roots: list[Point] = []
    jacobians: dict[int, tuple[float, ...]] = {}
    for seed in _seed_grid(grid_n):
        root = _return_map_newton(p, seed, period, jacobians)
        if root is not None:
            roots.append(root)
    # one solve per sign pattern: the patterns are the linearity cells of
    # the cyclic return system, so this coverage is exhaustive where the
    # grid strands thin cells
    for signs in sign_words(period):
        orbit = _pattern_orbit(p, signs)
        if orbit is not None:
            for k in range(period):
                roots.append((orbit[k], orbit[k - 1]))
    return sorted(_distinct(roots, lambda v: _verified_root(p, v, period) is not None))


def cone_check(p: Params, samples: int, seed: int = 0) -> bool:
    """Random-vector sweep of the universal cone invariances.

    Expanding cone |y| <= |x|/lam: both branch derivatives keep it and
    grow the L1/L2/Linf norms by >= lam (slack 1e-12).  Contracting cone
    |x| <= (b/lam)|y|: both inverse derivatives keep it and grow norms by
    >= lam/b = 1/mu.  The contracting side degenerates to the y-axis at
    b = 0 and is skipped there.
    """
    if not p.in_full:
        raise RegionError(f"({p.a}, {p.b}) is outside the full-family region")
    mult = multipliers(p)
    lam, mu = mult.lam, mult.mu
    rng = random.Random(seed)
    eps = 1e-12
    for _ in range(samples):
        x = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        y = rng.uniform(-abs(x) / lam, abs(x) / lam)
        for s in (-1.0, 1.0):
            wx, wy = -s * p.a * x - p.b * y, x
            if abs(wy) * lam > abs(wx) * (1.0 + eps):
                return False
            if not _norms_grow((x, y), (wx, wy), lam * (1.0 - eps)):
                return False
        if p.b == 0.0:
            continue
        y2 = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        x2 = rng.uniform(-mu * abs(y2), mu * abs(y2))
        for s in (-1.0, 1.0):
            # inverse branch derivative: (x, y) -> (y, (-x - s*a*y)/b)
            wx, wy = y2, (-x2 - s * p.a * y2) / p.b
            if abs(wx) > mu * abs(wy) * (1.0 + eps):
                return False
            if not _norms_grow((x2, y2), (wx, wy), (1.0 / mu) * (1.0 - eps)):
                return False
    return True


def _norms_grow(v: Point, w: Point, factor: float) -> bool:
    ax, ay = abs(v[0]), abs(v[1])
    bx, by = abs(w[0]), abs(w[1])
    return (
        bx + by >= factor * (ax + ay)
        and bx * bx + by * by >= factor * factor * (ax * ax + ay * ay)
        and max(bx, by) >= factor * max(ax, ay)
    )


@dataclass(frozen=True)
class TrappingLines:
    """Boundary lines of the trapping triangle of the left fixed point.

    chi: x = mu*(y+1) - 1 (stable line), phi1: y = (x+1)/lam - 1 (unstable
    line), phi2: the plus-branch image of phi1, through (lam-1, 0) with
    slope -1/(a+mu).
    """

    mu: float
    lam: float
    a: float
    u_inf: float
    phi2_slope: float

    def chi_x(self, y: float) -> float:
        return self.mu * (y + 1.0) - 1.0

    def phi1_y(self, x: float) -> float:
        return (x + 1.0) / self.lam - 1.0

    def phi2_y(self, x: float) -> float:
        return self.phi2_slope * (x - self.u_inf)

    def in_escape(self, v: Point) -> bool:
        # open wedge: demand a strict margin so boundary points within
        # float noise of the stable line are not misread as escaping
        return v[0] < self.chi_x(v[1]) - _TRAP_TOL and v[0] < 0.0

    def in_trap(self, v: Point) -> bool:
        x, y = v
        return (
            x >= self.chi_x(y) - _TRAP_TOL
            and y >= self.phi1_y(x) - _TRAP_TOL
            and y <= self.phi2_y(x) + _TRAP_TOL
        )


def trapping_lines(p: Params) -> TrappingLines:
    if not p.in_full:
        raise RegionError(f"({p.a}, {p.b}) is outside the full-family region")
    mult = multipliers(p)
    lines = TrappingLines(
        mu=mult.mu,
        lam=mult.lam,
        a=p.a,
        u_inf=mult.lam - 1.0,
        phi2_slope=-1.0 / (p.a + mult.mu),
    )
    # the stable line must clear the second-fold image on the y-axis,
    # so the triangle closes in the second quadrant
    if p.b > 0.0:
        j = mult.lam / p.b - 1.0
        k = (mult.lam - 1.0) / (p.a + mult.mu)
        if not j > k:
            raise DomainError("trapping triangle failed to close")
    return lines


def classify_orbit(p: Params, v: Point, max_iter: int = 100_000) -> OrbitClass:
    """Iterate until the orbit certifies escape or trapping.

    Escape: the orbit enters the forward-invariant wedge left of the
    stable line (or falls below -1e10, the numeric fallback).  Trapping:
    the orbit stays in the closed triangle for 100 consecutive steps, or
    revisits a streak point to within 1e-9 (a pseudo-cycle inside the
    triangle; saddle orbits drift off the exact cycle long before 100
    steps, so plain streak counting would misread them).  The witness is
    the first step of the certifying streak.
    """
    lines = trapping_lines(p)
    streak_start = -1
    streak_points: list[Point] = []
    for i in range(max_iter + 1):
        if lines.in_escape(v) or v[0] < -1e10:
            return OrbitClass(kind=OrbitKind.ESCAPES_MINUS_INFINITY, witness=i)
        if lines.in_trap(v):
            if streak_start < 0:
                streak_start = i
                streak_points = []
            if any(
                abs(v[0] - w[0]) <= 1e-9 and abs(v[1] - w[1]) <= 1e-9
                for w in streak_points
            ):
                return OrbitClass(kind=OrbitKind.TRAPPED, witness=streak_start)
            streak_points.append(v)
            if i - streak_start + 1 >= 100:
                return OrbitClass(kind=OrbitKind.TRAPPED, witness=streak_start)
        else:
            streak_start = -1
        v = apply_map(p, v)
    raise BudgetError(f"no classification within {max_iter} iterations", v)
