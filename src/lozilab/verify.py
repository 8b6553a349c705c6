"""Machine-checkable invariant suites behind the `verify` CLI command.

Each suite returns a list of named checks; a check that raises is a
failure with the exception text as detail.  All randomness is drawn from
the given seed, so summaries are reproducible byte for byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from .core import MINUS, PLUS, Params, apply_map, multipliers
from .geometry import (
    C_RL,
    C_RU,
    C_UL,
    SLOPE_C,
    BwdLine,
    critical_data,
    iterate_line_bwd,
    r_value,
    u_gap,
)
from .kneading import (
    Ordering,
    UItinerary,
    compare_tails,
    forcing_check_tent,
    order_compare,
)
from .oracle import OrbitKind, brute_periodic, classify_orbit, cone_check, orbit_signs
from .renorm import Regime, build_partition, classify_regime
from .symbolic import format_itinerary, formal_periodic_point, iota


@dataclass(frozen=True)
class Check:
    id: str
    passed: bool
    detail: str


def _run(checks: list[Check], check_id: str, fn: Callable[[], str]) -> None:
    try:
        checks.append(Check(check_id, True, fn()))
    except Exception as exc:  # noqa: BLE001 - a failing check is data
        checks.append(Check(check_id, False, f"{type(exc).__name__}: {exc}"))


def _p_full_samples(rng: random.Random, count: int) -> list[Params]:
    out = []
    while len(out) < count:
        b = rng.uniform(0.0, 1.0)
        a = rng.uniform(b + 1.05, 4.0)
        out.append(Params(a, b))
    return out


def _p_mod_grid(n_a: int, n_b: int, b_max: float = 0.3) -> list[Params]:
    grid = []
    for j in range(n_b):
        b = b_max * (j + 1) / n_b
        for i in range(n_a):
            a = (3.0 * b + 1.0 + 0.08) + (4.0 - 3.0 * b - 1.0 - 0.16) * i / (n_a - 1)
            grid.append(Params(a, b))
    return grid


def suite_cones(seed: int) -> list[Check]:
    checks: list[Check] = []

    def sweep() -> str:
        rng = random.Random(seed)
        params = _p_full_samples(rng, 200)
        for i, p in enumerate(params):
            if not cone_check(p, samples=50, seed=seed + i + 1):
                raise AssertionError(f"cone violation at ({p.a}, {p.b})")
        return "10000 vector samples over 200 parameters"

    _run(checks, "cones.invariance", sweep)
    return checks


def _words(length: int) -> list[tuple[int, ...]]:
    """All 2**length sign words, in the order of their bit patterns."""
    return [
        tuple(+1 if bits >> i & 1 else -1 for i in range(length))
        for bits in range(2**length)
    ]


def suite_orbits(seed: int) -> list[Check]:
    checks: list[Check] = []
    params = [Params(a, b) for a in (1.7, 2.1, 2.6) for b in (0.0, 0.2, 0.45)]

    def residuals() -> str:
        worst = 0.0
        for p in params:
            for length in range(1, 6):
                for word in _words(length):
                    worst = max(worst, formal_periodic_point(p, word).residual)
        if worst > 1e-10:
            raise AssertionError(f"residual {worst:.3e} above 1e-10")
        return f"worst residual {worst:.3e}"

    def equivalence() -> str:
        matched = 0
        for p in params:
            for period in range(1, 5):
                genuine = brute_periodic(p, period, grid_n=15)
                formal = []
                for word in _words(period):
                    fp = formal_periodic_point(p, word)
                    if fp.admissibility >= 0.0:
                        formal.append(fp.point)
                for q in formal:
                    if not any(_close(q, g, 1e-7) for g in genuine):
                        raise AssertionError(f"formal point {q} missing at ({p.a}, {p.b})")
                for g in genuine:
                    word = orbit_signs(p, g, period)
                    fp = formal_periodic_point(p, word)
                    if not _close(fp.point, g, 1e-7):
                        raise AssertionError(f"brute point {g} has no formal match")
                    matched += 1
        return f"{matched} genuine points matched"

    def genuine_return() -> str:
        count = 0
        for p in params:
            for length in range(1, 6):
                for word in _words(length):
                    fp = formal_periodic_point(p, word)
                    if fp.admissibility < 0.0:
                        continue
                    v = fp.point
                    for _ in range(length):
                        v = apply_map(p, v)
                    if not _close(v, fp.point, 1e-9):
                        raise AssertionError(
                            f"{format_itinerary(word)} not genuinely periodic at ({p.a}, {p.b})"
                        )
                    count += 1
        return f"{count} admissible orbits close up"

    def trapped() -> str:
        count = 0
        for p in params:
            for g in brute_periodic(p, 3, grid_n=15):
                if classify_orbit(p, g).kind is not OrbitKind.TRAPPED:
                    raise AssertionError(f"periodic point {g} not trapped")
                count += 1
        return f"{count} periodic points trapped"

    _run(checks, "orbits.residual", residuals)
    _run(checks, "orbits.equivalence", equivalence)
    _run(checks, "orbits.genuine-return", genuine_return)
    _run(checks, "orbits.trapped", trapped)
    return checks


def _close(u: tuple[float, float], v: tuple[float, float], tol: float) -> bool:
    return max(abs(u[0] - v[0]), abs(u[1] - v[1])) <= tol


def suite_convergence(seed: int) -> list[Check]:
    checks: list[Check] = []
    grid = _p_mod_grid(10, 6)

    def r_bounds() -> str:
        for p in grid:
            lam = multipliers(p).lam
            r_inf = r_value(p, math.inf)
            for m in range(2, 13):
                gap = r_inf - r_value(p, m)
                if not C_RL * lam ** -m < gap < C_RU * lam ** -m:
                    raise AssertionError(f"r bound fails at ({p.a}, {p.b}), m={m}")
        return f"{len(grid)} parameters, m = 2..12"

    def u_bounds() -> str:
        for p in grid:
            if p.b == 0.0:
                continue
            lam = multipliers(p).lam
            for m in range(2, 13):
                shrink = (1.0 - lam ** (1 - m)) * (p.b / lam) ** (m - 2) * p.b
                hi = 2.0 * (
                    1.0 - lam ** (1 - m) + (SLOPE_C + 1.5) * p.b / lam ** 2
                ) * (p.b / lam) ** (m - 2) * p.b
                for side in ("L", "R"):
                    gap = u_gap(p, m, side)
                    if not C_UL * shrink * (1 - 1e-9) <= gap <= hi * (1 + 1e-9):
                        raise AssertionError(
                            f"u bound fails at ({p.a}, {p.b}), m={m}, side={side}"
                        )
        return f"{len(grid)} parameters, m = 2..12, both sides"

    def ladder() -> str:
        for p in grid[:: max(1, len(grid) // 12)]:
            data = critical_data(p, 8)
            rs = [data.r[m] for m in sorted(data.r)] + [data.r_inf]
            if any(x >= y for x, y in zip(rs, rs[1:])):
                raise AssertionError(f"traces not increasing at ({p.a}, {p.b})")
            for m in range(2, 8):
                ok = (
                    data.u_left <= data.u_l[m] + 1e-12
                    and data.u_l[m] <= data.u_r[m] + 1e-12
                    and data.u_r[m] <= data.u_l[m + 1] + 1e-12
                    and data.u_l[m + 1] <= data.u_inf + 1e-12
                    and data.u_inf <= data.u_right + 1e-12
                )
                if not ok:
                    raise AssertionError(f"fold ladder fails at ({p.a}, {p.b}), m={m}")
        return "trace and fold ladders ordered"

    def regions() -> str:
        rng = random.Random(seed)
        for _ in range(200):
            b = rng.uniform(0.0, 0.3)
            a = rng.uniform(3 * b + 1.01, 4.0)
            p = Params(a, b)
            if a >= 2 * b + 2 and r_value(p, math.inf) > p.a - 2 * p.b - 1 + 1e-12:
                raise AssertionError(f"full-horseshoe bound fails at ({a}, {b})")
            if a < math.sqrt(2.0) * (1 - 3 * b):
                if multipliers(p).lam - 1.0 >= r_value(p, 2):
                    raise AssertionError(f"period-doubling bound fails at ({a}, {b})")
        return "200 sampled parameters"

    _run(checks, "convergence.r-bounds", r_bounds)
    _run(checks, "convergence.u-bounds", u_bounds)
    _run(checks, "convergence.ladders", ladder)
    _run(checks, "convergence.regions", regions)
    return checks


def suite_partition(seed: int) -> list[Check]:
    checks: list[Check] = []

    def closed_form() -> str:
        p = Params(2.0, 0.0)
        strips = build_partition(p, m_max=10)
        for strip in strips:
            if strip.label.startswith("C"):
                m = int(strip.label[1:])
                want = 1.0 - 2.0 / (2.0 ** (m - 1) * 3.0)
                if abs(strip.right_trace - want) > 1e-12:
                    raise AssertionError(f"{strip.label} trace off by "
                                         f"{strip.right_trace - want:.2e}")
        return "dyadic traces at (2, 0)"

    def ordering() -> str:
        for p in _p_mod_grid(8, 4):
            build_partition(p, m_max=12)  # raises if traces disorder
        return "32 parameters, m_max = 12"

    def membership() -> str:
        p = _first_large_regime(b=0.2, m=3, n=2)
        strips = {s.label: s for s in build_partition(p, m_max=6)}
        hits = 0
        for sigma in (MINUS, PLUS):
            fp = formal_periodic_point(p, iota(sigma, 3, 2))
            if fp.admissibility < 0.0:
                raise AssertionError("expected admissible pair in the large regime")
            if not strips["C3"].contains(fp.point):
                raise AssertionError(f"{fp.point} not in C3")
            v = fp.point
            for _ in range(2):
                v = apply_map(p, v)
            if not v[0] > 0.0:
                raise AssertionError("left-component certificate failed")
            v3 = fp.point
            for _ in range(3):
                v3 = apply_map(p, v3)
            if not strips["C2"].contains(v3):
                raise AssertionError(f"{v3} not in C2")
            hits += 1
        return f"{hits} admissible points located at ({p.a}, {p.b})"

    def pullback() -> str:
        rng = random.Random(seed)
        for _ in range(100):
            b = rng.uniform(0.01, 0.3)
            a = rng.uniform(3 * b + 1.05, 3.9)
            p = Params(a, b)
            mult = multipliers(p)
            u_left = p.a - 2 * p.b - 1
            strips = build_partition(p, m_max=3)
            d = strips[-1]
            trace = rng.uniform(d.left_trace + 1e-6, min(u_left, d.right_trace) - 1e-6)
            if trace <= d.left_trace:
                continue
            omega = BwdLine(vslope=rng.uniform(-mult.mu, mult.mu), anchor=(trace, 0.0))
            if not all(
                d.left.x_at(y) <= omega.x_at(y) <= d.right.x_at(y) for y in (-1.0, 1.0)
            ):
                continue
            for sigma in (MINUS, PLUS):
                pulled = iterate_line_bwd(p, (sigma,), omega)
                for y in (-1.0, 0.0, 1.0):
                    x = pulled.x_at(y)
                    if not d.left.x_at(y) - 1e-9 <= x <= d.right.x_at(y) + 1e-9:
                        raise AssertionError(f"pullback left D at ({a}, {b})")
                    if x * sigma < -1e-9:
                        raise AssertionError(f"pullback on wrong side at ({a}, {b})")
        return "100 random vertical segments"

    _run(checks, "partition.closed-form", closed_form)
    _run(checks, "partition.ordering", ordering)
    _run(checks, "partition.membership", membership)
    _run(checks, "partition.pullback", pullback)
    return checks


def _first_large_regime(b: float, m: int, n: int) -> Params:
    for i in range(60):
        p = Params(1.6 + 0.02 * i, b)
        if p.in_mod and classify_regime(p, m, n) is Regime.LARGE:
            return p
    raise AssertionError(f"no large-regime parameter found for ({m}, {n}) at b = {b}")


def suite_kneading(seed: int) -> list[Check]:
    checks: list[Check] = []

    def totality() -> str:
        rng = random.Random(seed)
        corpus = _corpus(rng, 40)
        pairs = 0
        for i, u in enumerate(corpus):
            for v in corpus[i + 1 :]:
                ab = order_compare(u, v)
                ba = order_compare(v, u)
                if ab is Ordering.EQUIVALENT:
                    if ba is not Ordering.EQUIVALENT:
                        raise AssertionError("equivalence not symmetric")
                elif ab.value != -ba.value:
                    raise AssertionError("comparison not antisymmetric")
                pairs += 1
        strict = [
            (u, v)
            for u in corpus
            for v in corpus
            if order_compare(u, v) is Ordering.LESS
        ]
        less = {(id(u), id(v)) for u, v in strict}
        for u, v in strict:
            for w in corpus:
                if (id(v), id(w)) in less and (id(u), id(w)) not in less:
                    raise AssertionError("transitivity fails")
        return f"{pairs} pairs total and transitive"

    def forcing() -> str:
        count = 0
        for m in range(4, 7):
            for n1 in range(3, m):
                for n2 in range(2, n1):
                    for i in range(60):
                        a = math.sqrt(2.0) + (2.0 - math.sqrt(2.0)) * (i + 1) / 60
                        if not forcing_check_tent(a, m, n1, n2):
                            raise AssertionError(f"forcing fails at a={a}, ({m},{n1},{n2})")
                        count += 1
        return f"{count} (a, m, n1, n2) combinations"

    def monotone_coding() -> str:
        rng = random.Random(seed + 1)
        a = 1.83
        for _ in range(300):
            x, y = sorted((rng.uniform(-0.6, a - 1.0), rng.uniform(-0.6, a - 1.0)))
            if x == y:
                continue
            cx = _tent_code(a, x, 48)
            cy = _tent_code(a, y, 48)
            ordering = compare_tails(cx, cy)
            if ordering is Ordering.GREATER:
                raise AssertionError(f"coding order reversed for {x} < {y}")
        return "300 sampled pairs at a = 1.83"

    _run(checks, "kneading.order", totality)
    _run(checks, "kneading.forcing", forcing)
    _run(checks, "kneading.monotone-coding", monotone_coding)
    return checks


def _corpus(rng: random.Random, count: int) -> list[UItinerary]:
    corpus = []
    for _ in range(count):
        pre_len = rng.randrange(0, 4)
        per_len = rng.randrange(1, 7)
        pre = tuple(rng.choice((-1, 0, +1)) for _ in range(pre_len))
        per = tuple(rng.choice((-1, 0, +1)) for _ in range(per_len))
        corpus.append(UItinerary(pre, per))
    return corpus


def _tent_code(a: float, x: float, length: int) -> list[int]:
    code = []
    for _ in range(length):
        code.append(0 if x == 0.0 else (+1 if x > 0.0 else -1))
        x = -a * abs(x) + (a - 1.0)
    return code


SUITES: dict[str, Callable[[int], list[Check]]] = {
    "cones": suite_cones,
    "orbits": suite_orbits,
    "convergence": suite_convergence,
    "partition": suite_partition,
    "kneading": suite_kneading,
}


def run_suite(name: str, seed: int) -> list[Check]:
    if name == "all":
        checks: list[Check] = []
        for key in SUITES:
            checks.extend(SUITES[key](seed))
        return checks
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed)
