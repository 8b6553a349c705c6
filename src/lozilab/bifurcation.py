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
from operator import itemgetter

from .core import DomainError, Params, RegionError, _require_count, _require_orders, multipliers
from .geometry import C_RL, C_RU, C_UL, C_UU, _r_ladder, p_value, q_value, r_value, u_value
from .renorm import log_coord
from .solvers import BracketError, _Memo, _require_tolerances, bisect, hybrid_root, predicted_cell

_SQRT2 = math.sqrt(2.0)
_A_HI = 4.0
_L_XTOL = 1e-6  # the width of the final bisection cell of every l_{m,n} solve

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

    solvers.hybrid_root scans for a sign change, finds the bracket's final
    bisection cell of width 1e-6, then polishes with central-difference
    Newton from its midpoint until |p - q| <= tol.  A non-monotone
    scan or several sign changes emit MultipleRootWarning and the
    rightmost root (the admissibility boundary reached from large a) is
    returned.  `guess` warm-starts the solve under the warm-start
    contract of solvers.
    """
    _require_orders(m, n)
    return hybrid_root(
        lambda a: _pq_gap(a, b, m, n),
        _a_low(b),
        _A_HI,
        scan_n=48,
        xtol=_L_XTOL,
        ftol=tol,
        guess=guess,
    )


def _guess(samples: list[tuple[float, float]], b: float) -> float:
    """The predicted root of a curve at b: the polynomial through the (at
    most) three samples (b_i, a_i), sorted in b, that bracket or lead up to b."""
    i = max(min(bisect_left(samples, b, key=itemgetter(0)) - 2, len(samples) - 3), 0)
    near = samples[i:i + 3]
    guess = 0.0
    for bi, ai in near:
        for bj, _ in near:
            if bj != bi:
                ai *= (b - bj) / (bi - bj)
        guess += ai
    return guess


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

    Each interior sample is solved from the root predicted by the samples
    before it.

    Raises, before any solve, unless m > n >= 2 are whole numbers, tol is
    finite and >= 0 and the grid has two or more strictly increasing points;
    and if any sampled a leaves (sqrt(2), 4), or if adjacent samples jump by
    more than 1.5x the local slope estimate (a guard against bracket hopping).
    """
    _require_orders(m, n)
    _require_tolerances(_L_XTOL, tol)
    if len(b_grid) < 2:
        raise DomainError("need at least two grid points")
    for lo, hi in zip(b_grid, b_grid[1:]):
        if not lo < hi:
            raise DomainError(f"b-grid not strictly increasing: {lo!r} then {hi!r}")
    samples: list[tuple[float, float]] = []
    for k, b in enumerate(b_grid):
        guess = _guess(samples, b) if 0 < k < len(b_grid) - 1 else None
        try:
            samples.append((b, solve_l(b, m, n, tol=tol, guess=guess)))
        except DomainError as exc:
            raise BracketError(f"curve ({m},{n}) failed at b = {b}: {exc}") from exc
    avals = [a for _, a in samples]
    for a in avals:
        if not _SQRT2 < a < _A_HI:
            raise DomainError(f"curve ({m},{n}) left (sqrt(2), 4): a = {a}")
    slopes = _fd_slopes(b_grid, avals)
    for k in range(len(b_grid) - 1):
        db = b_grid[k + 1] - b_grid[k]
        bound = 1.5 * max(abs(slopes[k]), abs(slopes[k + 1])) * db + 1e-9
        if abs(avals[k + 1] - avals[k]) > bound:
            raise DomainError(f"curve ({m},{n}) jumps at b = {b_grid[k]}")
    return BifCurve(m=m, n=n, samples=samples, dadb=slopes)


def _tangency_gap(a: float, b: float) -> float:
    p = Params(a, b)
    return u_value(p, math.inf, "L") - r_value(p, math.inf)


def tangency_a(b: float) -> float:
    """The parameter a = t(b) near 2 where the fold limit meets the trace limit.

    Searched on (max(sqrt(2), 3b + 1), 3).  From b ~ 0.2871 on t(b) lies at
    or below 3b + 1, and for b >= 2/3 that interval is empty; both raise
    RegionError, as the tangency has left the partition region a > 3b + 1.
    Any other scan without a sign change raises BracketError.  A b that is
    not >= 0 (NaN included) raises DomainError before any gap evaluation.
    """
    if not b >= 0.0:
        raise DomainError(f"need b >= 0, got {b}")
    lo = _a_low(b)
    if not lo < 3.0:
        raise RegionError(f"b = {b}: the partition region a > 3b + 1 leaves no a < 3 for t(b)")
    try:
        return hybrid_root(
            lambda a: _tangency_gap(a, b), lo, 3.0, scan_n=32, xtol=1e-6, ftol=1e-13
        )
    except BracketError:
        if not _tangency_gap(lo, b) > 0.0:
            raise
    raise RegionError(f"b = {b}: t(b) lies at or below 3b + 1, outside the partition "
                      "region a > 3b + 1")


def crossing_gaps(curve2: BifCurve, curve3: BifCurve) -> tuple[list[float], list[int]]:
    """The gaps l_{m,2} - l_{m,3} on the shared b-grid, and every k where
    the sign changes between samples k and k+1; refuses curves sampled on
    different b-grids."""
    if [b for b, _ in curve2.samples] != [b for b, _ in curve3.samples]:
        raise DomainError("the two curves are sampled on different b-grids")
    gaps = [a2 - a3 for (_, a2), (_, a3) in zip(curve2.samples, curve3.samples)]
    flips = [k for k in range(len(gaps) - 1) if (gaps[k] < 0.0) != (gaps[k + 1] < 0.0)]
    return gaps, flips


def _solve_near(curve: BifCurve, b: float, tol: float) -> float:
    """l_{m,n}(b) solved from the root predicted by the curve's samples."""
    return solve_l(b, curve.m, curve.n, tol=tol, guess=_guess(curve.samples, b))


def refine_crossing(
    curve2: BifCurve, curve3: BifCurve, k: int, width: float, *, tol: float = 1e-12
) -> tuple[float, float]:
    """Bisect the sign change of l_{m,2} - l_{m,3} between the curves' samples k
    and k+1 until the bracket is at most `width` wide.  Returns the midpoint b*
    and l_{m,2}(b*); every solve stops at |p - q| <= tol and starts from the root
    predicted by the curve's samples.  Refuses curves on different b-grids, k
    outside 0..len(samples) - 2, and a NaN, infinite or negative width.

    The final cell comes from solvers.predicted_cell, whose hunt stays
    between the two samples, so under the warm-start contract b* and
    l_{m,2}(b*) are bit for bit the bisection's; a decreasing difference,
    or a hunt that fails, runs the bisection.  l_{m,2}(b*) is the value the
    difference solved at b*, when it was evaluated there.
    """
    gaps = crossing_gaps(curve2, curve3)[0]
    _require_count("k", k, 0, len(gaps) - 2)
    if not 0.0 <= width < math.inf:
        raise DomainError(f"need a finite width >= 0, got {width!r}")
    lo, hi, glo, ghi = curve2.samples[k][0], curve2.samples[k + 1][0], gaps[k], gaps[k + 1]
    l2 = _Memo(lambda b: _solve_near(curve2, b, tol)).__getitem__

    def gap(b: float) -> float:
        return l2(b) - _solve_near(curve3, b, tol)

    cell = predicted_cell(gap, lo, hi, glo, ghi, width)
    lo, hi = cell if cell is not None else bisect(gap, lo, hi, glo, ghi, width)[:2]
    b_star = 0.5 * (lo + hi)
    return b_star, l2(b_star)


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
    raises ConditionError carrying the measured gap.  Above b_bar ~ 5.887e-4
    the numerator log(1/b_bar) + log(C3/C4) - log(C_RU/C_RL) is <= 0, so
    the condition fails for every lam > 1: ConditionError carries the
    numerator, and t(b_bar) is not solved.  Below b_bar ~ 5.5e-17 r_inf
    rounds to its b = 0 value 1.0, and DomainError refuses before any ladder;
    a third fold short of trace m within 4 ulp of r_inf is DomainError too.
    """
    if not 0.0 < b_bar < 1.0:
        raise DomainError(f"need 0 < b_bar < 1, got {b_bar}")
    sep = math.log(1.0 / b_bar) + math.log(C3 / C4) - math.log(C_RU / C_RL)
    if sep <= 0.0:
        raise ConditionError(
            f"b_bar = {b_bar} too large: log-scale separation numerator {sep:.3f} <= 0"
        )
    p = Params(tangency_a(b_bar), b_bar)
    gap = sep / math.log(multipliers(p).lam) - 2.0
    if gap <= 0.0:
        raise ConditionError(
            f"b_bar = {b_bar} too large: log-scale separation gap {gap:.3f} <= 0"
        )
    r_inf = r_value(p, math.inf)
    if r_inf == 1.0:
        raise DomainError(
            f"b_bar = {b_bar} is below float resolution: r_inf rounds to its b = 0 value 1.0"
        )
    t_fold = _ladder_coord(p, u_value(p, 2, "R"), "fold u_2^R")
    traces = (r for *_, r in _r_ladder(p, 401))
    for j, r in enumerate(traces, start=1):
        if _ladder_coord(p, r, f"trace r_{j}") > t_fold:
            break
        if j == 400:
            raise DomainError("fold sandwich not found below index 400")
    m = j + 1
    # the full reversed configuration: the third fold must clear trace m
    u_third = u_value(p, 3, "L")
    t_third = _ladder_coord(p, u_third, f"fold u_3^L (m = {m})")
    if t_third <= _ladder_coord(p, next(traces), f"trace r_{m}"):
        if r_inf - u_third <= 4.0 * math.ulp(r_inf):
            raise DomainError(f"fold u_3^L (m = {m}) = {u_third!r} is within float "
                              f"resolution of r_inf = {r_inf!r} at b_bar = {b_bar}")
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
    every shared sample, then refines the crossing with refine_crossing to
    width max(1e-13, 1e-7 * b_bar), warm-started under the warm-start
    contract of solvers.  The slopes at b* are central differences of
    solves predicted by the curves' samples.
    """
    if not 0.0 < b_bar < 1.0:
        raise DomainError(f"need 0 < b_bar < 1, got {b_bar}")
    _require_count("grid_points", grid_points, 2)
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
    h = 0.5 * (bs[1] - bs[0])
    h = min(h, b_star)
    slope2, slope3 = (
        (_solve_near(c, b_star + h, 1e-12) - _solve_near(c, b_star - h, 1e-12)) / (2.0 * h)
        for c in (curve2, curve3)
    )
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
