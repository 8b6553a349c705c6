"""Brute-force verification independent of the symbolic machinery.

Everything here iterates the genuine piecewise map only: periodic points
come from two independent searches (return-map Newton over a seed grid,
full-orbit Newton over the sign-pattern cells), hyperbolicity estimates
from the universal cones, and long-run behaviour from the trapping
triangle of the left fixed point's invariant lines.  Every root handed
back has been verified by forward iteration alone.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .core import (
    DomainError,
    Params,
    Point,
    RegionError,
    apply_map,
    multipliers,
)


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


def _solve_dense(a: list[list[float]], rhs: list[float]) -> list[float] | None:
    """Gaussian elimination with partial pivoting for the tiny orbit systems."""
    n = len(rhs)
    m = [row[:] + [r] for row, r in zip(a, rhs)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) < 1e-13:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1.0 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor != 0.0:
                for c in range(col, n + 1):
                    m[r][c] -= factor * m[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / m[r][r]
    return x


def _orbit_newton(p: Params, xs: list[float]) -> list[float] | None:
    """Full-orbit Newton on the cyclic system x_{k+1} + a|x_k| + b x_{k-1}
    = a - b - 1; one step is exact within a sign pattern, so this hops
    between patterns far more robustly than single shooting."""
    n = len(xs)
    rhs_const = p.a - p.b - 1.0
    for _ in range(20):
        g = [
            xs[(k + 1) % n] + p.a * abs(xs[k]) + p.b * xs[(k - 1) % n] - rhs_const
            for k in range(n)
        ]
        if max(abs(v) for v in g) < 1e-13:
            return xs
        jac = [[0.0] * n for _ in range(n)]
        for k in range(n):
            jac[k][(k + 1) % n] += 1.0
            jac[k][k] += p.a * (1.0 if xs[k] >= 0.0 else -1.0)
            jac[k][(k - 1) % n] += p.b
        delta = _solve_dense(jac, g)
        if delta is None:
            return None
        xs = [x - d for x, d in zip(xs, delta)]
        if max(abs(x) for x in xs) > 1e6:
            return None
    return None


def _return_map_newton(p: Params, seed: Point, period: int) -> Point | None:
    """Newton on v -> map^period(v) - v with the orbit's branch Jacobian."""
    x, y = seed
    for _ in range(60):
        j11, j12, j21, j22 = 1.0, 0.0, 0.0, 1.0
        cx, cy = x, y
        for _ in range(period):
            s = +1.0 if cx >= 0.0 else -1.0
            m11, m12 = -s * p.a, -p.b
            j11, j12, j21, j22 = (
                m11 * j11 + m12 * j21,
                m11 * j12 + m12 * j22,
                j11,
                j12,
            )
            cx, cy = -p.a * abs(cx) - p.b * cy + (p.a - p.b - 1.0), cx
        fx, fy = cx - x, cy - y
        if abs(fx) < 1e-13 and abs(fy) < 1e-13:
            return (x, y)
        d11, d12, d21, d22 = j11 - 1.0, j12, j21, j22 - 1.0
        det = d11 * d22 - d12 * d21
        if abs(det) < 1e-14:
            return None
        x -= (fx * d22 - fy * d12) / det
        y -= (fy * d11 - fx * d21) / det
        if abs(x) > 1e6 or abs(y) > 1e6:
            return None
    return None


def _verified_root(p: Params, v: Point, period: int) -> Point | None:
    w = v
    for _ in range(period):
        w = apply_map(p, w)
    if max(abs(w[0] - v[0]), abs(w[1] - v[1])) > 1e-10:
        return None
    return v


def brute_periodic(p: Params, period: int, grid_n: int) -> list[Point]:
    """All points with map^period(v) = v, Newton-refined and verified.

    Two independent searches: return-map Newton from every seed of a
    sheared grid on [-2, 2]^2, and full-orbit Newton from one seed per sign
    pattern (x_k = +-0.5), keeping every cyclic shift of the orbit found.
    For a > b + 1 the cyclic Jacobian of x_{k+1} + s_k a x_k + b x_{k-1}
    is strictly diagonally dominant at every period (period 1: the scalar
    1 + s a + b; period 2: the off-diagonal entries merge into 1 + b < a),
    so it is nonsingular and the first step from a pattern's seed lands on
    the one orbit with that pattern.  The pattern search alone thus reaches
    every orbit whose period divides `period`: a period-d orbit also solves
    the repeated pattern.  The grid search stays as the one path that does
    not rest on this argument.  Roots are checked by forward iteration,
    deduplicated at 1e-7, and sorted.
    """
    if not p.in_full:
        raise RegionError(f"({p.a}, {p.b}) is outside the full-family region")
    if not 1 <= period <= 10:
        raise DomainError(f"need 1 <= period <= 10, got {period}")
    if grid_n < 2:
        raise DomainError(f"need grid_n >= 2, got {grid_n}")
    found: list[Point] = []

    def add(root: Point) -> None:
        if _verified_root(p, root, period) is not None and all(
            max(abs(root[0] - q[0]), abs(root[1] - q[1])) > 1e-7 for q in found
        ):
            found.append(root)

    # sheared lattice: grid_n^2 distinct abscissas, so the seeds stay
    # effective when b = 0 collapses the dynamics onto the x-coordinate
    for i in range(grid_n):
        for j in range(grid_n):
            seed = (
                -2.0 + 4.0 * (i * grid_n + j + 0.5) / grid_n**2,
                -2.0 + 4.0 * j / (grid_n - 1),
            )
            root = _return_map_newton(p, seed, period)
            if root is not None:
                add(root)
    # one orbit-space seed per sign pattern: the patterns are the
    # linearity cells of the cyclic return system, so this coverage is
    # exhaustive where the grid strands thin cells
    for bits in range(2**period):
        orbit = _orbit_newton(p, [0.5 if bits >> k & 1 else -0.5 for k in range(period)])
        if orbit is not None:
            for k in range(period):
                add((orbit[k], orbit[k - 1]))
    return sorted(found)


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

    def in_escape(self, v: Point, tol: float = 1e-12) -> bool:
        # open wedge: demand a strict margin so boundary points within
        # float noise of the stable line are not misread as escaping
        return v[0] < self.chi_x(v[1]) - tol and v[0] < 0.0

    def in_trap(self, v: Point, tol: float = 1e-12) -> bool:
        x, y = v
        return (
            x >= self.chi_x(y) - tol
            and y >= self.phi1_y(x) - tol
            and y <= self.phi2_y(x) + tol
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
