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
from dataclasses import dataclass

from .core import DomainError, Params, multipliers
from .geometry import C_RL, C_RU, C_UL, C_UU, p_value, q_value, r_value, u_value
from .renorm import log_coord
from .solvers import BracketError, hybrid_root

_SQRT2 = math.sqrt(2.0)
_A_HI = 4.0

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


def solve_l(b: float, m: int, n: int, *, tol: float = 1e-12) -> float:
    """The root a in (sqrt(2), 4) of the fold/pullback gap at fixed b.

    Scans for a sign change, bisects the bracket to 1e-6, then polishes
    with central-difference Newton until |p - q| <= tol.  A non-monotone
    scan or several sign changes emit MultipleRootWarning and the
    rightmost root (the admissibility boundary reached from large a) is
    returned.
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
    )


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

    Raises if any sampled a leaves (sqrt(2), 4) or if adjacent samples
    jump by more than 1.5x the local slope estimate (a continuity guard
    against bracket hopping).
    """
    if len(b_grid) < 2:
        raise DomainError("need at least two grid points")
    avals = []
    for b in b_grid:
        try:
            avals.append(solve_l(b, m, n, tol=tol))
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


@dataclass(frozen=True)
class TangencyCurve:
    samples: list[tuple[float, float]]


def tangency_curve(b_grid: list[float]) -> TangencyCurve:
    return TangencyCurve(samples=[(b, tangency_a(b)) for b in b_grid])


def crossing_gaps(curve2: BifCurve, curve3: BifCurve) -> tuple[list[float], list[int]]:
    """The gaps l_{m,2} - l_{m,3} on the shared b-grid, and every k where
    the sign changes between samples k and k+1."""
    gaps = [a2 - a3 for (_, a2), (_, a3) in zip(curve2.samples, curve3.samples)]
    flips = [k for k in range(len(gaps) - 1) if (gaps[k] < 0.0) != (gaps[k + 1] < 0.0)]
    return gaps, flips


def refine_crossing(
    m: int, lo: float, hi: float, glo: float, width: float, *, tol: float = 1e-12
) -> tuple[float, float]:
    """Bisect the sign change of l_{m,2} - l_{m,3} on [lo, hi], whose gap
    at lo is glo, until the bracket is at most `width` wide.  Returns the
    midpoint b* and l_{m,2}(b*); every solve stops at |p - q| <= tol."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        gm = solve_l(mid, m, 2, tol=tol) - solve_l(mid, m, 3, tol=tol)
        if (gm < 0.0) == (glo < 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    b_star = 0.5 * (lo + hi)
    return b_star, solve_l(b_star, m, 2, tol=tol)


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
    t_fold = log_coord(p, u_value(p, 2, "R"))
    j = 1
    while log_coord(p, r_value(p, j)) <= t_fold:
        j += 1
        if j > 400:
            raise DomainError("fold sandwich not found below index 400")
    m = j + 1
    # the full reversed configuration: the third fold must clear trace m
    if log_coord(p, u_value(p, 3, "L")) <= log_coord(p, r_value(p, m)):
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
    every shared sample, then refines the crossing by bisection.
    """
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
    b_star, a_star = refine_crossing(m, bs[k], bs[k + 1], gaps[k], max(1e-13, 1e-7 * b_bar))
    h = 0.5 * (bs[1] - bs[0])
    h = min(h, b_star) if b_star > 0 else h
    slope2 = (solve_l(b_star + h, m, 2) - solve_l(b_star - h, m, 2)) / (2.0 * h)
    slope3 = (solve_l(b_star + h, m, 3) - solve_l(b_star - h, m, 3)) / (2.0 * h)
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
