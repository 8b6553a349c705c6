"""Scalar root finding: bracket scan, bisection, safeguarded Newton polish."""

from __future__ import annotations

import warnings
from typing import Callable

from .core import DomainError

# central-difference step for the Newton slope, and the Newton step budget
_FD_STEP = 1e-7
_NEWTON_MAX_ITER = 60
# final bisection cells a warm solve tries before it falls back to the scan
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

    Each bracket is (x0, x1, f0, f1).  The second result reports whether
    the sampled values were strictly increasing.
    """
    xs = [lo + (hi - lo) * i / n for i in range(n + 1)]
    vals = [f(x) for x in xs]
    brackets = []
    for i in range(n):
        if vals[i] == 0.0:
            brackets.append((xs[i], xs[i], vals[i], vals[i]))
        elif (vals[i] < 0.0) != (vals[i + 1] < 0.0):
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


def newton_polish(
    f: Callable[[float], float],
    x: float,
    lo: float,
    hi: float,
    *,
    ftol: float,
) -> float:
    """Newton with central-difference slope, safeguarded inside [lo, hi].

    Evaluates f once per iterate and returns the first iterate with
    |f| <= ftol (the smallest |f| seen); raises if none is found.
    """
    fx = f(x)
    best_x, best_f = x, abs(fx)
    for _ in range(_NEWTON_MAX_ITER):
        if best_f <= ftol:
            return best_x
        slope = (f(x + _FD_STEP) - f(x - _FD_STEP)) / (2.0 * _FD_STEP)
        if slope == 0.0:
            break
        step = fx / slope
        x_new = x - step
        if not lo <= x_new <= hi:
            x_new = 0.5 * (x + (lo if step > 0 else hi))
        if x_new == x:
            break
        x = x_new
        fx = f(x)
        if abs(fx) < best_f:
            best_x, best_f = x, abs(fx)
    if best_f > ftol:
        raise ConvergenceError(f"|f| = {best_f:.3e} above tolerance {ftol:.3e}")
    return best_x


def _tree_cell(
    lo: float, hi: float, n: int, xtol: float, x: float
) -> tuple[float, float]:
    """The final cell that bisection to xtol reaches inside the scan cell
    holding x, walking the bisection tree toward x without evaluating f."""
    i = min(max(int((x - lo) / (hi - lo) * n), 0), n - 1)
    x0, x1 = lo + (hi - lo) * i / n, lo + (hi - lo) * (i + 1) / n
    c0, c1, _, _ = bisect(lambda t: -1.0 if t < x else 1.0, x0, x1, -1.0, 1.0, xtol)
    return c0, c1


def _warm_bracket(
    f: Callable[[float], float], lo: float, hi: float, n: int, xtol: float, guess: float
) -> tuple[float, float] | None:
    """The final bisection cell with f < 0 < f at its ends, hunted from the
    cell holding guess through at most _HUNT_CELLS neighbouring cells; None
    when the hunt leaves (lo, hi) or runs out."""
    x = guess
    for _ in range(_HUNT_CELLS):
        if not lo < x < hi:
            return None
        c0, c1 = _tree_cell(lo, hi, n, xtol, x)
        if not f(c0) < 0.0:
            x = c0 - 0.5 * (c1 - c0)
        elif not f(c1) > 0.0:
            x = c1 + 0.5 * (c1 - c0)
        else:
            return c0, c1
    return None


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
    """Bracket by scanning, bisect to xtol, then Newton-polish to |f| <= ftol.

    Warns (MultipleRootWarning) when the scan is non-monotone or shows more
    than one sign change; the last (rightmost) bracket is refined then.

    Only a call without `guess` is sure to run the full scan.  With a
    predicted root the scan is skipped: the final bisection cell holding
    guess, or one of the next _HUNT_CELLS - 1 cells toward the root, is
    taken when f < 0 < f at its two ends.  If f increases on that scan
    cell and the scan would find one bracket, this is the cell that the
    cold bisection reaches, so the Newton start and the root are
    bit-for-bit the cold ones.  Such a solve never warns.  When no cell
    passes, the full scan runs as without a guess.
    """
    cell = None if guess is None else _warm_bracket(f, lo, hi, scan_n, xtol, guess)
    if cell is not None:
        return newton_polish(f, 0.5 * (cell[0] + cell[1]), *cell, ftol=ftol)
    brackets, monotone = scan_brackets(f, lo, hi, scan_n)
    if not brackets:
        raise BracketError(f"no sign change of f on [{lo}, {hi}]")
    if len(brackets) > 1 or not monotone:
        warnings.warn(
            f"{len(brackets)} sign changes, monotone={monotone} on [{lo}, {hi}]",
            MultipleRootWarning,
            stacklevel=2,
        )
    b0, b1, f0, f1 = bisect(f, *brackets[-1], xtol)
    return newton_polish(f, 0.5 * (b0 + b1), b0, b1, ftol=ftol)
