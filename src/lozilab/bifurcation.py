"""Border-collision curves a = l_{m,n}(b), the tangency curve, and the
order-reversal search.

A parameter is on l_{m,n} exactly when the fold abscissa of the iterated
x-axis equals the trace of the pulled-back switching line (p = q).  In the
small-b regime that difference is increasing in a, so each fixed b gives
one root; the roots form near-affine curves whose m,2 and m,3 members
cross once, reversing the creation order of the two orbit pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .core import DomainError, Params, multipliers
from .geometry import C_RL, C_RU, C_UL, C_UU, p_value, q_value, r_value, u_value
from .renorm import log_coord
from .solvers import BracketError, bisect, hybrid_root

_SQRT2 = math.sqrt(2.0)
_A_HI = 4.0
# the a-step of the secant that corrects the second and third samples' guesses
_SECANT_STEP = 1e-6

# Log-scale offsets for the folds: T(u_n^d) - (n-1) log_lam(1/b) lies in
# [log_lam C3, log_lam C4] for n in {2, 3} on the box [sqrt(2), 4] x [0, B].
_BOX_B_MAX = 0.07


def _fold_gauge(n: int, lam: float) -> float:
    return (1.0 - lam ** (1 - n)) * lam ** (2 - n)


_LAM_MIN = 0.5 * (_SQRT2 + math.sqrt(2.0 - 4.0 * _BOX_B_MAX))
_G_MIN = min(_fold_gauge(2, _LAM_MIN), _fold_gauge(3, _LAM_MIN), _fold_gauge(3, 4.0))
_G_MAX = max(_fold_gauge(2, 4.0), _fold_gauge(3, math.sqrt(3.0)))
C3 = 1.0 / (C_UU * _G_MAX)
C4 = 1.0 / (C_UL * _G_MIN)


class ConditionError(DomainError):
    """b_bar is too large for the log-scale separation condition."""


class ReversalError(DomainError):
    """The reversal certificate failed (endpoint order, crossings, slopes)."""


def _a_low(b: float) -> float:
    return max(_SQRT2, 3.0 * b + 1.0) + 1e-9


def _pq_gap(a: float, b: float, m: int, n: int) -> float:
    p = Params(a, b)
    return p_value(p, m, n) - q_value(p, m, n)


def solve_l(
    b: float, m: int, n: int, *, tol: float = 1e-12, guess: float | None = None
) -> float:
    """The root a in (sqrt(2), 4) of the fold/pullback gap at fixed b.

    Scans for a sign change, bisects the bracket to 1e-6, then polishes
    with central-difference Newton until |p - q| <= tol.  A non-monotone
    scan or several sign changes emit MultipleRootWarning and the
    rightmost root (the admissibility boundary reached from large a) is
    returned.  A call without `guess` always runs the full scan; with a
    predicted root the scan runs only when hybrid_root's warm start
    fails, and the root is then the one the scan would find where the gap
    increases on the scan cell holding it and has one sign change.
    """
    if not m > n >= 2:
        raise DomainError(f"need m > n >= 2, got ({m}, {n})")
    return hybrid_root(
        lambda a: _pq_gap(a, b, m, n),
        _a_low(b),
        _A_HI,
        scan_n=48,
        xtol=1e-6,
        ftol=tol,
        guess=guess,
    )


def _predict(bs: list[float], avals: list[float], b: float) -> float:
    """The polynomial through the points (bs[i], avals[i]), evaluated at b."""
    total = 0.0
    for i, (bi, ai) in enumerate(zip(bs, avals)):
        for j, bj in enumerate(bs):
            if j != i:
                ai *= (b - bj) / (bi - bj)
        total += ai
    return total


def _secant_guess(a: float, b: float, m: int, n: int) -> float:
    """One secant step in a toward the root at b, starting from a."""
    g0, g1 = _pq_gap(a, b, m, n), _pq_gap(a + _SECANT_STEP, b, m, n)
    return a if g1 == g0 else a - g0 * _SECANT_STEP / (g1 - g0)


@dataclass(frozen=True)
class BifCurve:
    """One sampled curve b |-> a with finite-difference slope estimates."""

    m: int
    n: int
    samples: list[tuple[float, float]]
    dadb: list[float]


def _fd_slopes(bs: list[float], avals: list[float]) -> list[float]:
    n = len(bs)
    slopes = []
    for k in range(n):
        if k == 0:
            slopes.append((avals[1] - avals[0]) / (bs[1] - bs[0]))
        elif k == n - 1:
            slopes.append((avals[-1] - avals[-2]) / (bs[-1] - bs[-2]))
        else:
            slopes.append((avals[k + 1] - avals[k - 1]) / (bs[k + 1] - bs[k - 1]))
    return slopes


def trace_curve(
    m: int, n: int, b_grid: list[float], *, tol: float = 1e-12
) -> BifCurve:
    """Solve along a b-grid and attach centered-difference slopes.

    The first and last samples are solved with the full scan.  Each other
    sample is warm-started (see solve_l) from the constant, line or
    parabola through the one to three samples before it, corrected by one
    secant step in a for the second and third samples.

    Raises if the grid has fewer than two points or is not strictly
    increasing, if any sampled a leaves (sqrt(2), 4), or if adjacent
    samples jump by more than 1.5x the local slope estimate (a continuity
    guard against bracket hopping).
    """
    if len(b_grid) < 2:
        raise DomainError("need at least two grid points")
    for lo, hi in zip(b_grid, b_grid[1:]):
        if not lo < hi:
            raise DomainError(f"b-grid not strictly increasing: {lo!r} then {hi!r}")
    avals: list[float] = []
    for k, b in enumerate(b_grid):
        guess = None
        if 0 < k < len(b_grid) - 1:
            guess = _predict(b_grid[max(k - 3, 0):k], avals[-3:], b)
            if k < 3:
                guess = _secant_guess(guess, b, m, n)
        try:
            avals.append(solve_l(b, m, n, tol=tol, guess=guess))
        except (BracketError, DomainError) as exc:
            raise BracketError(f"curve ({m},{n}) failed at b = {b}: {exc}") from exc
    for a in avals:
        if not _SQRT2 < a < _A_HI:
            raise DomainError(f"curve ({m},{n}) left (sqrt(2), 4): a = {a}")
    slopes = _fd_slopes(b_grid, avals)
    for k in range(len(b_grid) - 1):
        db = b_grid[k + 1] - b_grid[k]
        bound = 1.5 * max(abs(slopes[k]), abs(slopes[k + 1])) * db + 1e-9
        if abs(avals[k + 1] - avals[k]) > bound:
            raise DomainError(f"curve ({m},{n}) jumps at b = {b_grid[k]}")
    return BifCurve(m=m, n=n, samples=list(zip(b_grid, avals)), dadb=slopes)


def _tangency_gap(a: float, b: float) -> float:
    p = Params(a, b)
    return u_value(p, math.inf, "L") - r_value(p, math.inf)


def tangency_a(b: float) -> float:
    """The parameter a = t(b) near 2 where the fold limit meets the trace limit."""
    return hybrid_root(
        lambda a: _tangency_gap(a, b),
        _a_low(b),
        3.0,
        scan_n=32,
        xtol=1e-6,
        ftol=1e-13,
    )


def crossing_gaps(curve2: BifCurve, curve3: BifCurve) -> tuple[list[float], list[int]]:
    """The gaps l_{m,2} - l_{m,3} on the shared b-grid, and every k where
    the sign changes between samples k and k+1."""
    gaps = [a2 - a3 for (_, a2), (_, a3) in zip(curve2.samples, curve3.samples)]
    flips = [k for k in range(len(gaps) - 1) if (gaps[k] < 0.0) != (gaps[k + 1] < 0.0)]
    return gaps, flips


class _Solved:
    """The solved points of one curve, sorted in b.  Each new solve is
    warm-started from the line through the nearest solved points on each
    side (the nearest two on one side, outside the solved range)."""

    def __init__(self, curve: BifCurve, tol: float):
        self.m, self.n, self.tol = curve.m, curve.n, tol
        self.bs = [b for b, _ in curve.samples]
        self.avals = [a for _, a in curve.samples]

    def solve(self, b: float) -> float:
        j = bisect_left(self.bs, b)
        i = min(max(j, 1), len(self.bs) - 1)
        guess = _predict(self.bs[i - 1:i + 1], self.avals[i - 1:i + 1], b)
        a = solve_l(b, self.m, self.n, tol=self.tol, guess=guess)
        if j == len(self.bs) or self.bs[j] != b:
            self.bs.insert(j, b)
            self.avals.insert(j, a)
        return a


def refine_crossing(
    curve2: BifCurve, curve3: BifCurve, k: int, width: float, *, tol: float = 1e-12
) -> tuple[float, float]:
    """Bisect the sign change of l_{m,2} - l_{m,3} between the curves'
    samples k and k+1 until the bracket is at most `width` wide.  Returns
    the midpoint b* and l_{m,2}(b*); every solve stops at |p - q| <= tol.
    No solve here runs the full scan unless its warm start fails: each is
    predicted by the line through the nearest solved b on each side."""
    solved2, solved3 = _Solved(curve2, tol), _Solved(curve3, tol)
    (lo, a2lo), (hi, a2hi) = curve2.samples[k], curve2.samples[k + 1]
    glo, ghi = a2lo - curve3.samples[k][1], a2hi - curve3.samples[k + 1][1]
    lo, hi, _, _ = bisect(
        lambda b: solved2.solve(b) - solved3.solve(b), lo, hi, glo, ghi, width
    )
    b_star = 0.5 * (lo + hi)
    return b_star, solved2.solve(b_star)


def _ladder_coord(p: Params, x: float, name: str) -> float:
    """log_coord of a ladder value; refuses one rounded onto the limit r_inf."""
    if x >= r_value(p, math.inf):
        raise DomainError(f"{name} = {x!r} has reached r_inf at float resolution")
    return log_coord(p, x)


def choose_m(b_bar: float) -> int:
    """The unique strip index sandwiching the second fold on the log scale.

    Evaluated at (t(b_bar), b_bar): finds m with T(r_{m-2}) <= T(u_2^R)
    < T(r_{m-1}).  Requires the log-scale separation condition
    log_lam(1/b_bar) + log_lam(C3/C4) > 2 + log_lam(C_RU/C_RL); otherwise
    raises ConditionError carrying the measured gap.
    """
    if not 0.0 < b_bar < 1.0:
        raise DomainError(f"need 0 < b_bar < 1, got {b_bar}")
    p = Params(tangency_a(b_bar), b_bar)
    log_lam = math.log(multipliers(p).lam)
    gap = (math.log(1.0 / b_bar) + math.log(C3 / C4) - math.log(C_RU / C_RL)) / log_lam - 2.0
    if gap <= 0.0:
        raise ConditionError(
            f"b_bar = {b_bar} too large: log-scale separation gap {gap:.3f} <= 0"
        )
    t_fold = _ladder_coord(p, u_value(p, 2, "R"), "fold u_2^R")
    j = 1
    while _ladder_coord(p, r_value(p, j), f"trace r_{j}") <= t_fold:
        j += 1
        if j > 400:
            raise DomainError("fold sandwich not found below index 400")
    m = j + 1
    # the full reversed configuration: the third fold must clear trace m
    t_third = _ladder_coord(p, u_value(p, 3, "L"), f"fold u_3^L (m = {m})")
    if t_third <= _ladder_coord(p, r_value(p, m), f"trace r_{m}"):
        raise ConditionError(f"third fold not beyond trace {m} at b_bar = {b_bar}")
    return m


@dataclass(frozen=True)
class ReversalResult:
    m: int
    b_star: float
    a_star: float
    slope2: float
    slope3: float
    curve2: BifCurve
    curve3: BifCurve


def find_reversal(
    b_bar: float, m: int | None = None, grid_points: int = 41
) -> ReversalResult:
    """Certify the unique transversal crossing of l_{m,2} and l_{m,3}.

    Checks the reversed endpoint orders l_{m,2}(0) < l_{m,3}(0) and
    l_{m,2}(b_bar) > l_{m,3}(b_bar), exactly one sign change of the
    difference on the grid, slope ordering d l_{m,2}/db > d l_{m,3}/db at
    every shared sample, then refines the crossing by bisection.  Only
    the curves' end samples at b = 0 and b_bar run the full root scan
    (see trace_curve).  The crossing's solves and a* (see refine_crossing)
    and the four slope solves at b* +- h are warm-started from the line
    through the nearest solved b on each side, and scan only if that warm
    start fails.
    """
    if not 0.0 < b_bar < 1.0:
        raise DomainError(f"need 0 < b_bar < 1, got {b_bar}")
    if grid_points < 2:
        raise DomainError(f"need grid_points >= 2, got {grid_points}")
    if m is None:
        m = choose_m(b_bar)
    bs = [b_bar * i / (grid_points - 1) for i in range(grid_points)]
    curve2 = trace_curve(m, 2, bs)
    curve3 = trace_curve(m, 3, bs)
    gaps, flips = crossing_gaps(curve2, curve3)
    if not gaps[0] < 0.0:
        raise ReversalError(f"order not l2 < l3 at b = 0 (gap {gaps[0]:.3e})")
    if not gaps[-1] > 0.0:
        raise ReversalError(f"order not l2 > l3 at b_bar (gap {gaps[-1]:.3e})")
    if len(flips) != 1:
        raise ReversalError(f"{len(flips)} sign changes of l2 - l3 on the grid")
    for k, (s2, s3) in enumerate(zip(curve2.dadb, curve3.dadb)):
        if not s2 > s3:
            raise ReversalError(f"slope order fails at b = {bs[k]}")

    k = flips[0]
    b_star, a_star = refine_crossing(curve2, curve3, k, max(1e-13, 1e-7 * b_bar))
    solved2, solved3 = _Solved(curve2, 1e-12), _Solved(curve3, 1e-12)
    h = 0.5 * (bs[1] - bs[0])
    h = min(h, b_star) if b_star > 0 else h
    slope2 = (solved2.solve(b_star + h) - solved2.solve(b_star - h)) / (2.0 * h)
    slope3 = (solved3.solve(b_star + h) - solved3.solve(b_star - h)) / (2.0 * h)
    if not slope2 > slope3:
        raise ReversalError(f"crossing not transverse: {slope2} <= {slope3}")
    return ReversalResult(
        m=m,
        b_star=b_star,
        a_star=a_star,
        slope2=slope2,
        slope3=slope3,
        curve2=curve2,
        curve3=curve3,
    )
