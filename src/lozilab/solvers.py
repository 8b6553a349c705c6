"""Scalar root finding: bracket scan, bisection, safeguarded Newton polish.

Warm-start contract.  A root is found in two stages: the final cell of
bisection to xtol inside a sign-change bracket, then Newton from that
cell's midpoint.  A warm start replaces the first stage by a hunt from a
predicted root that never leaves the scan cell holding the prediction:
the bisection tree of that cell is walked to the final cell holding the
current point without evaluating f, and the final cell is checked at its
midpoint, the Newton start, then toward the root at the Newton slope
point on that side when both slope points lie strictly inside it.  A
failed check moves the hunt to the secant root of the midpoint and a
second point: that slope point, else the previous midpoint, or at the
first step the scan cell's end across the root.  When that secant root
stays in the cell, Newton's first iterate from the midpoint is read next
if both slope points lie inside it: the same step and clamp to the cell
as newton_polish, from the other slope point, so Newton reads these
values again from hybrid_root's memo.  A sign change at that iterate, on
the root's side of the midpoint, confirms the cell; otherwise the cell's
end toward the root decides, and an end without a sign change moves the
hunt one cell on.  The hunt gives up when it leaves the scan cell or has
checked _HUNT_CELLS cells; then the cold path runs.  Each check that
confirms a cell sees a strict sign change within it, and on its way to
the final cell bisection evaluates f only at that cell's ends or beyond
them, so where f is negative below the taken cell and positive above it
across the scan cell, and a cold scan would see that one sign change
only, the cell, the Newton start and the root are bit for bit the cold
path's.  The predictions are hybrid_root's `guess` and predicted_cell's
root of the line through a bracket's ends.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

from .core import DomainError

# central-difference step for the Newton slope, and the Newton step budget
_FD_STEP = 1e-7
_NEWTON_MAX_ITER = 60
# final bisection cells a warm solve checks before it falls back to the scan
_HUNT_CELLS = 4


class BracketError(DomainError):
    """No sign change found on the scanned interval."""


class ConvergenceError(DomainError):
    """Root refinement did not reach the requested residual."""


class MultipleRootWarning(UserWarning):
    """The scan saw a non-monotone profile or several sign changes."""


def scan_brackets(
    f: Callable[[float], float], lo: float, hi: float, n: int
) -> tuple[list[tuple[float, float, float, float]], bool]:
    """Evaluate f on n+1 uniform nodes; return sign-change brackets.

    Each bracket is (x0, x1, f0, f1): a node where f is 0, lo and hi
    included, as the zero-width bracket (x, x, 0, 0), and a cell whose two
    nonzero end values differ in sign.  The second result reports whether
    the sampled values were strictly increasing.
    """
    xs = [lo + (hi - lo) * i / n for i in range(n + 1)]
    vals = [f(x) for x in xs]
    brackets = []
    for i in range(n + 1):
        if vals[i] == 0.0:
            brackets.append((xs[i], xs[i], vals[i], vals[i]))
        elif i < n and vals[i + 1] != 0.0 and (vals[i] < 0.0) != (vals[i + 1] < 0.0):
            brackets.append((xs[i], xs[i + 1], vals[i], vals[i + 1]))
    monotone = all(vals[i] < vals[i + 1] for i in range(n))
    return brackets, monotone


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    flo: float,
    fhi: float,
    xtol: float,
) -> tuple[float, float, float, float]:
    """Shrink a sign-change bracket to width <= xtol."""
    if flo == 0.0:
        return lo, lo, flo, flo
    if fhi == 0.0:
        return hi, hi, fhi, fhi
    if (flo < 0.0) == (fhi < 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # hit float resolution
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid, mid, 0.0, 0.0
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo, hi, flo, fhi


def _newton_step(
    x: float, fx: float, f_up: float, f_down: float, lo: float, hi: float
) -> float:
    """The Newton iterate from x by the central-difference slope, given f
    at x and at x +- _FD_STEP; a step out of [lo, hi] goes halfway to the
    end it crosses, and a zero slope returns x."""
    slope = (f_up - f_down) / (2.0 * _FD_STEP)
    if slope == 0.0:
        return x
    step = fx / slope
    x_new = x - step
    if not lo <= x_new <= hi:
        x_new = 0.5 * (x + (lo if step > 0 else hi))
    return x_new


def newton_polish(
    f: Callable[[float], float],
    x: float,
    lo: float,
    hi: float,
    *,
    ftol: float,
) -> float:
    """Newton with central-difference slope, safeguarded inside [lo, hi].

    Evaluates f at each iterate and, for the slope, at the iterate +-
    _FD_STEP; returns the first iterate with |f| <= ftol (the smallest |f|
    seen) and raises if none is found.  hybrid_root passes f memoized, so
    the start's values and the first iterate that its cell check computed
    are not recomputed.
    """
    fx = f(x)
    best_x, best_f = x, abs(fx)
    for _ in range(_NEWTON_MAX_ITER):
        if best_f <= ftol:
            return best_x
        x_new = _newton_step(x, fx, f(x + _FD_STEP), f(x - _FD_STEP), lo, hi)
        if x_new == x:
            break
        x = x_new
        fx = f(x)
        if abs(fx) < best_f:
            best_x, best_f = x, abs(fx)
    if best_f > ftol:
        raise ConvergenceError(f"|f| = {best_f:.3e} above tolerance {ftol:.3e}")
    return best_x


def _tree_cell(lo: float, hi: float, xtol: float, x: float) -> tuple[float, float]:
    """The final cell that bisection of (lo, hi) to xtol reaches around x,
    walking the bisection tree toward x without evaluating f."""
    c0, c1, _, _ = bisect(lambda t: -1.0 if t < x else 1.0, lo, hi, -1.0, 1.0, xtol)
    return c0, c1


def _warm_bracket(
    f: Callable[[float], float], lo: float, hi: float, n: int, xtol: float, guess: float
) -> tuple[float, float] | None:
    """The final bisection cell in which f changes sign, hunted inside the
    cell of the n-cell scan of (lo, hi) that holds guess; None when guess
    is not inside (lo, hi), or the hunt leaves that scan cell or checks
    _HUNT_CELLS cells without a sign change.  Cells are checked and the
    hunt moves as the warm-start contract says.
    """
    if not lo < guess < hi:
        return None
    i = min(int((guess - lo) / (hi - lo) * n), n - 1)
    lo, hi = lo + (hi - lo) * i / n, lo + (hi - lo) * (i + 1) / n
    x, x0 = guess, None
    for _ in range(_HUNT_CELLS):
        if not lo < x < hi:
            return None
        c0, c1 = _tree_cell(lo, hi, xtol, x)
        mid = 0.5 * (c0 + c1)
        fm = f(mid)
        s = 1.0 if fm < 0.0 else -1.0  # the side of mid that the root is on
        fits = c0 < mid - _FD_STEP and mid + _FD_STEP < c1
        if fits:
            x0 = mid + s * _FD_STEP
            f0 = f(x0)
            if s * f0 > 0.0:
                return c0, c1
        elif x0 is None:  # the first step pairs mid with the end across the root
            x0 = hi if s > 0.0 else lo
            f0 = f(x0)
        x = mid - fm * (x0 - mid) / (f0 - fm) if f0 != fm else mid
        if c0 <= x <= c1:  # the secant stays in the cell
            if fits:  # Newton's first iterate from mid decides, else its end
                f1 = f(mid - s * _FD_STEP)
                f_up, f_down = (f0, f1) if s > 0.0 else (f1, f0)
                xn = _newton_step(mid, fm, f_up, f_down, c0, c1)
                if s * (xn - mid) > 0.0 and s * f(xn) > 0.0:
                    return c0, c1
            end = c1 if s > 0.0 else c0
            if s * f(end) > 0.0:
                return c0, c1
            x = end + 0.5 * s * (c1 - c0)
        x0, f0 = mid, fm
    return None


def predicted_cell(
    f: Callable[[float], float], lo: float, hi: float, flo: float, fhi: float, xtol: float
) -> tuple[float, float] | None:
    """The final cell of bisect(f, lo, hi, flo, fhi, xtol), hunted from the
    root of the line through the bracket's ends, with flo and fhi standing
    for f at lo and hi; None when flo < 0 < fhi fails, the bracket is
    already at most xtol wide, or the hunt fails.  The hunt checks each
    cell as the warm-start contract says, reading Newton's first iterate
    from the cell's midpoint before the cell's end.
    """
    if not (flo < 0.0 < fhi and hi - lo > xtol):
        return None
    return _warm_bracket(
        lambda t: flo if t == lo else fhi if t == hi else f(t),
        lo, hi, 1, xtol, lo - flo * (hi - lo) / (fhi - flo),
    )


class _Memo(dict):
    """The values of f by argument, each computed on its first lookup: the
    per-call memo of hybrid_root and bifurcation.refine_crossing, read
    through its __getitem__."""

    def __init__(self, f: Callable[[float], float]) -> None:
        self.f = f

    def __missing__(self, x: float) -> float:
        fx = self[x] = self.f(x)
        return fx


def _require_tolerances(xtol: float, ftol: float) -> None:
    if not (0.0 <= xtol < math.inf and 0.0 <= ftol < math.inf):
        raise DomainError(f"need finite tolerances >= 0, got xtol={xtol!r}, ftol={ftol!r}")


def hybrid_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    scan_n: int = 48,
    xtol: float = 1e-6,
    ftol: float = 1e-12,
    guess: float | None = None,
) -> float:
    """Bracket by scanning, find the final cell of bisection to xtol, then
    Newton-polish to |f| <= ftol.  Each value of f is computed once.

    Warns (MultipleRootWarning) when the scan is non-monotone or shows more
    than one sign change; the last (rightmost) bracket is bisected then.
    After a monotone scan with one bracket, predicted_cell hunts the final
    cell from the line through the bracket's ends; bisect runs only when
    the hunt fails.  A hunt reads Newton's start, its slope points and
    its first iterate before a cell's end where the warm-start contract
    says, and Newton reads those values again from the memo.
    With `guess` the scan is skipped unless the warm start fails (see the
    warm-start contract); a warm solve never warns, and only a call
    without `guess` is sure to run the full scan.  A NaN, infinite or
    negative xtol or ftol is refused, and so is an interval without lo < hi,
    before f is evaluated.
    """
    _require_tolerances(xtol, ftol)
    if not lo < hi:
        raise DomainError(f"need an interval lo < hi, got lo={lo!r}, hi={hi!r}")
    f = _Memo(f).__getitem__
    cell = None if guess is None else _warm_bracket(f, lo, hi, scan_n, xtol, guess)
    if cell is None:
        brackets, monotone = scan_brackets(f, lo, hi, scan_n)
        if not brackets:
            raise BracketError(f"no sign change of f on [{lo}, {hi}]")
        warned = len(brackets) > 1 or not monotone
        if warned:
            warnings.warn(
                f"{len(brackets)} sign changes, monotone={monotone} on [{lo}, {hi}]",
                MultipleRootWarning,
                stacklevel=2,
            )
        cell = None if warned else predicted_cell(f, *brackets[-1], xtol)
        if cell is None:
            cell = bisect(f, *brackets[-1], xtol)[:2]
    return newton_polish(f, 0.5 * (cell[0] + cell[1]), *cell, ftol=ftol)
