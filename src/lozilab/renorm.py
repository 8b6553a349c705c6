"""The vertical-strip partition, regime classification, and the log scale.

Strips live on the band R x [-1, 1].  Their boundaries are near-vertical
stable segments obtained by pulling the local stable lines of the two
fixed points back through branch inverses; a strip is the closed region
between two of them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import MINUS, PLUS, DomainError, Params, _require_count, _require_orders, multipliers
from .geometry import BwdLine, _r_ladder, _require_mod, iterate_line_bwd, r_value, stable_line
from .geometry import u_value

_STRIP_TOL = 1e-9


@dataclass(frozen=True)
class Strip:
    """Closed vertical strip between two near-vertical boundary segments."""

    left: BwdLine
    right: BwdLine
    label: str

    def contains(self, v: tuple[float, float]) -> bool:
        x, y = v
        if not -1.0 - _STRIP_TOL <= y <= 1.0 + _STRIP_TOL:
            return False
        return self.left.x_at(y) - _STRIP_TOL <= x <= self.right.x_at(y) + _STRIP_TOL


class Regime(enum.Enum):
    SMALL = "small"
    INTERMEDIATE = "intermediate"
    LARGE = "large"


def build_partition(p: Params, m_max: int = 16) -> list[Strip]:
    """Strips B, C_2 .. C_{m_max}, D with strictly increasing inner traces.

    B sits between the first two minus-pullbacks of the right fixed
    point's stable line; each C_m between consecutive plus-pullbacks; D
    spans from the left fixed point's stable line pullback family limit
    to its plus-pullback.  Refuses p outside the partition region
    (geometry._require_mod), m_max < 2 and traces that stop increasing;
    so no strip is crossed: B's and D's traces are ordered in closed form.
    """
    _require_mod(p)
    _require_count("m_max", m_max, 2)
    pullbacks = list(_r_ladder(p, m_max))
    beta1 = BwdLine(pullbacks[1][0], (pullbacks[1][1], 0.0))
    gammas = [BwdLine(v, (c, 0.0)) for _, _, v, c in pullbacks]
    beta_inf = stable_line(p, MINUS)
    gamma_inf = iterate_line_bwd(p, (PLUS,), beta_inf)

    strips = [Strip(left=beta1, right=stable_line(p, PLUS), label="B")]
    for m in range(2, m_max + 1):
        strips.append(Strip(left=gammas[m - 2], right=gammas[m - 1], label=f"C{m}"))
    strips.append(Strip(left=beta_inf, right=gamma_inf, label="D"))

    # traces[j - 1] is r_j, traces[-1] is r_inf; they increase in exact arithmetic
    traces = [g.trace for g in gammas] + [gamma_inf.trace]
    for j, (t0, t1) in enumerate(zip(traces, traces[1:]), start=1):
        if t0 >= t1:
            raise DomainError(
                f"stable traces stop increasing after r_{j} = {t0!r} at ({p.a}, {p.b}): "
                "the gap to r_inf is below float resolution there"
            )
    return strips


def classify_regime(p: Params, m: int, n: int) -> Regime:
    """Position of the n-th folds relative to the strips around C_m.

    LARGE (r_m <= u_n^L) forces the period-(m+n) orbit pair to exist;
    SMALL (u_n^R < r_{m-1}) forbids it; INTERMEDIATE contains the border
    collision.  Refuses (m, n) unless m > n >= 2 are whole numbers
    (core._require_orders), before any ladder is read.
    """
    _require_orders(m, n)
    if u_value(p, n, "R") < r_value(p, m - 1):
        return Regime.SMALL
    if r_value(p, m) <= u_value(p, n, "L"):
        return Regime.LARGE
    return Regime.INTERMEDIATE


def log_coord(p: Params, x: float) -> float:
    """Log-scale coordinate -log_lam(r_inf - x); defined for x < r_inf,
    which NaN is not."""
    r_inf = r_value(p, math.inf)
    if not x < r_inf:
        raise DomainError(f"x = {x} is not below the trace limit {r_inf}")
    return -math.log(r_inf - x) / math.log(multipliers(p).lam)
