"""The paper's checkable invariants, and the suites behind the `verify`
CLI command.

Each invariant is written once, as a public function that takes its
inputs and bounds, returns a one-line detail and raises AssertionError
on failure; the suites here, the acceptance criteria and the unit tests
call it on their own grids.  The three formal-point invariants read one
sweep, _formal_sweep, which also makes their empty-input refusals.  Each
suite returns a list of named checks; a check that raises is a failure
with the exception text as detail.  All randomness is drawn from the
given seed, so summaries are reproducible byte for byte.  run_suite
runs each suite in its own symbolic._solve_once scope, ended with the
suite, raised or not: a formal point its checks share is solved once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .core import MINUS, PLUS, Params, _require_count, apply_map, multipliers
from .geometry import (
    C_RL,
    C_RU,
    C_UL,
    SLOPE_C,
    BwdLine,
    _r_ladder,
    _u_ladder,
    boundary_turning_points,
    iterate_line_bwd,
    r_value,
    u_value,
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
from .symbolic import _solve_once, format_itinerary, formal_periodic_point, iota, sign_words


@dataclass(frozen=True)
class Check:
    id: str
    passed: bool
    detail: str


def _run(check_id: str, fn: Callable[..., str], *args) -> Check:
    try:
        return Check(check_id, True, fn(*args))
    except Exception as exc:  # noqa: BLE001 - a failing check is data
        return Check(check_id, False, f"{type(exc).__name__}: {exc}")


# ------------------------------------------------------------ invariants

def _close(u: tuple[float, float], v: tuple[float, float], tol: float) -> bool:
    return max(abs(u[0] - v[0]), abs(u[1] - v[1])) <= tol


def _formal_sweep(params: list[Params], lengths: range) -> Iterator[tuple]:
    """(p, length, formal point) of each word of each length at each p; refuses empty inputs."""
    _require_count("len(params)", len(params), 1)
    _require_count("len(lengths)", len(lengths), 1)
    for p in params:
        for length in lengths:
            for word in sign_words(length):
                yield p, length, formal_periodic_point(p, word)


def orbit_residuals(params: list[Params], lengths: range) -> str:
    """Each formal periodic point of each word length has step residual < 1e-10."""
    worst = max(fp.residual for _, _, fp in _formal_sweep(params, lengths))
    if not worst < 1e-10:
        raise AssertionError(f"residual {worst:.3e} not below 1e-10")
    return f"worst residual {worst:.3e}"


def genuine_return(params: list[Params], lengths: range) -> str:
    """The genuine map closes each admissible formal orbit to 1e-9."""
    count = 0
    for p, length, fp in _formal_sweep(params, lengths):
        if fp.admissibility < 0.0:
            continue
        v = fp.point
        for _ in range(length):
            v = apply_map(p, v)
        if not _close(v, fp.point, 1e-9):
            raise AssertionError(
                f"{format_itinerary(fp.itinerary)} not genuinely periodic at ({p.a}, {p.b})"
            )
        count += 1
    return f"{count} admissible orbits close up"


def orbit_equivalence(params: list[Params], periods: range, grid_n: int) -> str:
    """Admissible formal points are brute_periodic's points, to 1e-7; each
    brute-force point is the formal point of its coding, shared by none."""
    _require_count("len(params)", len(params), 1)
    _require_count("len(periods)", len(periods), 1)
    matched = 0
    for p in params:
        for period in periods:
            genuine = brute_periodic(p, period, grid_n=grid_n)
            codings = [orbit_signs(p, g, period) for g in genuine]
            if len(set(codings)) != len(codings):
                raise AssertionError(
                    f"two period-{period} points share a coding at ({p.a}, {p.b})"
                )
            formal = {word: formal_periodic_point(p, word) for word in sign_words(period)}
            for fp in formal.values():
                if fp.admissibility >= 0.0 and not any(
                    _close(fp.point, g, 1e-7) for g in genuine
                ):
                    raise AssertionError(f"formal point {fp.point} missing at ({p.a}, {p.b})")
            for g, word in zip(genuine, codings):
                if not _close(formal[word].point, g, 1e-7):
                    raise AssertionError(f"brute point {g} has no formal match")
                matched += 1
    return f"{matched} genuine points matched"


def trapped_orbits(params: list[Params]) -> str:
    """Each admissible period-3 formal point (brute_periodic's, by orbit_equivalence) is trapped."""
    count = 0
    for p, _, fp in _formal_sweep(params, range(3, 4)):
        if fp.admissibility < 0.0:
            continue
        if classify_orbit(p, fp.point).kind is not OrbitKind.TRAPPED:
            raise AssertionError(f"periodic point {fp.point} not trapped")
        count += 1
    return f"{count} periodic points trapped"


def cone_sweep(params: list[Params]) -> str:
    """cone_check passes at every parameter."""
    _require_count("len(params)", len(params), 1)
    for p in params:
        if not cone_check(p):
            raise AssertionError(f"cone violation at ({p.a}, {p.b})")
    return f"{len(params)} parameters decided at the cone edges"


def r_bounds(params: list[Params], lo: float, hi: float) -> str:
    """lo / lam^m < r_inf - r_m < hi / lam^m for m = 2..12."""
    _require_count("len(params)", len(params), 1)
    for p in params:
        lam = multipliers(p).lam
        r_inf = r_value(p, math.inf)
        traces = [r for *_, r in _r_ladder(p, 12)]
        for m in range(2, 13):
            gap = r_inf - traces[m - 1]
            if not lo * lam ** -m < gap < hi * lam ** -m:
                raise AssertionError(f"r bound fails at ({p.a}, {p.b}), m={m}")
    return f"{len(params)} parameters, m = 2..12"


def u_bounds(params: list[Params], lo: float, slope_c: float) -> str:
    """lo s_m <= u_inf - u_m^{L,R} <= 2 (s_m + (slope_c + 1.5) (b/lam^2)(b/lam)^(m-2) b)
    for m = 2..12, with 1e-9 relative slack; s_m = (1 - lam^(1-m)) (b/lam)^(m-2) b.
    Tight only in 2 s_m, as b -> 0 near a = 4: the slope_c term goes untested."""
    _require_count("len(params)", len(params), 1)
    for p in params:
        lam = multipliers(p).lam
        gaps = {side: [g for _, g in _u_ladder(p, side, 12)] for side in ("L", "R")}
        for m in range(2, 13):
            shrink = (1.0 - lam ** (1 - m)) * (p.b / lam) ** (m - 2) * p.b
            hi = 2.0 * (
                1.0 - lam ** (1 - m) + (slope_c + 1.5) * p.b / lam ** 2
            ) * (p.b / lam) ** (m - 2) * p.b
            for side in ("L", "R"):
                gap = gaps[side][m - 2]
                if not lo * shrink * (1 - 1e-9) <= gap <= hi * (1 + 1e-9):
                    raise AssertionError(f"u bound fails at ({p.a}, {p.b}), m={m}, side={side}")
    return f"{len(params)} parameters, m = 2..12, both sides"


def ladders(params: list[Params], m_max: int) -> str:
    """Traces r_m rise strictly to r_inf, and u_left <= u_m^L <= u_m^R <=
    u_{m+1}^L <= u_inf <= u_right to 1e-12, for 2 <= m < m_max; refuses
    m_max < 3, where the fold ladder is empty."""
    _require_count("len(params)", len(params), 1)
    _require_count("m_max", m_max, 3)
    for p in params:
        rs = [r for *_, r in _r_ladder(p, m_max)] + [r_value(p, math.inf)]
        if not all(x < y for x, y in zip(rs, rs[1:])):
            raise AssertionError(f"traces not increasing at ({p.a}, {p.b})")
        u_left, u_right = boundary_turning_points(p)
        u_inf = u_value(p, math.inf, "L")
        left, right = ([u for u, _ in _u_ladder(p, side, m_max)] for side in ("L", "R"))
        for m in range(2, m_max):
            folds = (u_left, left[m - 2], right[m - 2], left[m - 1], u_inf, u_right)
            if not all(x <= y + 1e-12 for x, y in zip(folds, folds[1:])):
                raise AssertionError(f"fold ladder fails at ({p.a}, {p.b}), m={m}")
    return "trace and fold ladders ordered"


def dyadic_traces() -> str:
    """At (2, 0), strip C_m (m <= 10) has right trace 1 - 2/(3 * 2^(m-1)) to 1e-12."""
    for strip in build_partition(Params(2.0, 0.0), m_max=10):
        if strip.label.startswith("C"):
            m = int(strip.label[1:])
            want = 1.0 - 2.0 / (2.0 ** (m - 1) * 3.0)
            if abs(strip.right.trace - want) > 1e-12:
                raise AssertionError(f"{strip.label} trace off by "
                                     f"{strip.right.trace - want:.2e}")
    return "dyadic traces at (2, 0)"


def strip_membership(b: float, m: int, n: int) -> str:
    """At the first large-regime a of the scan 1.6, 1.62, ..., both iota(+-1,
    m, n) points are admissible and in C_m; their iterate m - 1 lies right
    of the critical line and their iterate m in C_n."""
    scan = (Params(1.6 + 0.02 * i, b) for i in range(60))
    p = next((q for q in scan if q.in_mod and classify_regime(q, m, n) is Regime.LARGE), None)
    if p is None:
        raise AssertionError(f"no large-regime parameter found for ({m}, {n}) at b = {b}")
    strips = {s.label: s for s in build_partition(p, m_max=m)}
    hits = 0
    for sigma in (MINUS, PLUS):
        fp = formal_periodic_point(p, iota(sigma, m, n))
        if fp.admissibility < 0.0:
            raise AssertionError("expected admissible pair in the large regime")
        if not strips[f"C{m}"].contains(fp.point):
            raise AssertionError(f"{fp.point} not in C{m}")
        orbit = [fp.point]
        for _ in range(m):
            orbit.append(apply_map(p, orbit[-1]))
        if not orbit[m - 1][0] > 0.0:
            raise AssertionError("left-component certificate failed")
        if not strips[f"C{n}"].contains(orbit[m]):
            raise AssertionError(f"{orbit[m]} not in C{n}")
        hits += 1
    return f"{hits} admissible points located at ({p.a}, {p.b})"


def order_laws(corpus: list[UItinerary]) -> str:
    """order_compare is reflexive, antisymmetric and strictly transitive
    (u < v < w implies u < w) on the corpus.  Each ordered pair is compared
    once, into one table that all three laws read."""
    _require_count("len(corpus)", len(corpus), 1)
    table = [[order_compare(u, v) for v in corpus] for u in corpus]
    n = len(corpus)
    for i in range(n):
        if table[i][i] is not Ordering.EQUIVALENT:
            raise AssertionError("comparison not reflexive")
        for j in range(i + 1, n):
            ab, ba = table[i][j], table[j][i]
            if ab is Ordering.EQUIVALENT:
                if ba is not Ordering.EQUIVALENT:
                    raise AssertionError("equivalence not symmetric")
            elif ab.value != -ba.value:
                raise AssertionError("comparison not antisymmetric")
    # above[i] = {k: corpus[i] < corpus[k]}; transitivity: above[j] <= above[i] for j in above[i]
    above = [{k for k, o in enumerate(row) if o is Ordering.LESS} for row in table]
    if any(not above[j] <= above[i] for i in range(n) for j in above[i]):
        raise AssertionError("transitivity fails")
    return f"{n * (n - 1) // 2} pairs total and transitive"


def forcing_sweep(m_max: int, count: int) -> str:
    """forcing_check_tent holds for 2 <= n2 < n1 < m <= m_max, m >= 4, at
    `count` equally spaced a in (sqrt(2), 2]."""
    _require_count("m_max", m_max, 4)
    _require_count("count", count, 1)
    combos = 0
    for m in range(4, m_max + 1):
        for n1 in range(3, m):
            for n2 in range(2, n1):
                for i in range(count):
                    a = math.sqrt(2.0) + (2.0 - math.sqrt(2.0)) * (i + 1) / count
                    if not forcing_check_tent(a, m, n1, n2):
                        raise AssertionError(f"forcing fails at a={a}, ({m},{n1},{n2})")
                    combos += 1
    return f"{combos} (a, m, n1, n2) combinations"


def monotone_coding(a: float, pairs: list[tuple[float, float]]) -> str:
    """No pair x < y has a 48-symbol tent coding of x above that of y."""
    _require_count("len(pairs)", len(pairs), 1)
    for x, y in pairs:
        if x != y and compare_tails(_tent_code(a, x, 48), _tent_code(a, y, 48)) is Ordering.GREATER:
            raise AssertionError(f"coding order reversed for {x} < {y}")
    return f"{len(pairs)} sampled pairs at a = {a}"


def _tent_code(a: float, x: float, length: int) -> Iterator[int]:
    """The first `length` symbols of x's tent orbit, made as they are read."""
    for _ in range(length):
        yield 0 if x == 0.0 else (+1 if x > 0.0 else -1)
        x = -a * abs(x) + (a - 1.0)


# ---------------------------------------------------------------- suites

def _p_mod_grid(n_a: int, n_b: int) -> list[Params]:
    grid = []
    for j in range(n_b):
        b = 0.3 * (j + 1) / n_b
        for i in range(n_a):
            a = (3.0 * b + 1.0 + 0.08) + (4.0 - 3.0 * b - 1.0 - 0.16) * i / (n_a - 1)
            grid.append(Params(a, b))
    return grid


def suite_cones(seed: int) -> list[Check]:
    rng = random.Random(seed)
    params = []
    for _ in range(200):
        b = rng.uniform(0.0, 1.0)
        params.append(Params(rng.uniform(b + 1.05, 4.0), b))
    return [_run("cones.invariance", cone_sweep, params)]


def suite_orbits(seed: int) -> list[Check]:
    params = [Params(a, b) for a in (1.7, 2.1, 2.6) for b in (0.0, 0.2, 0.45)]
    return [
        _run("orbits.residual", orbit_residuals, params, range(1, 6)),
        _run("orbits.equivalence", orbit_equivalence, params, range(1, 5), 15),
        _run("orbits.genuine-return", genuine_return, params, range(1, 6)),
        _run("orbits.trapped", trapped_orbits, params),
    ]


def suite_convergence(seed: int) -> list[Check]:
    grid = _p_mod_grid(10, 6)

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

    return [
        _run("convergence.r-bounds", r_bounds, grid, C_RL, C_RU),
        _run("convergence.u-bounds", u_bounds, grid, C_UL, SLOPE_C),
        _run("convergence.ladders", ladders, grid[:: max(1, len(grid) // 12)], 8),
        _run("convergence.regions", regions),
    ]


def suite_partition(seed: int) -> list[Check]:
    def ordering() -> str:
        for p in _p_mod_grid(8, 4):
            build_partition(p, m_max=12)  # raises if traces disorder
        return "32 parameters, m_max = 12"

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
            trace = rng.uniform(d.left.trace + 1e-6, min(u_left, d.right.trace) - 1e-6)
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

    return [
        _run("partition.closed-form", dyadic_traces),
        _run("partition.ordering", ordering),
        _run("partition.membership", strip_membership, 0.2, 3, 2),
        _run("partition.pullback", pullback),
    ]


def suite_kneading(seed: int) -> list[Check]:
    corpus = _corpus(random.Random(seed), 40)
    a = 1.83
    rng = random.Random(seed + 1)
    pairs = [
        sorted((rng.uniform(-0.6, a - 1.0), rng.uniform(-0.6, a - 1.0)))
        for _ in range(300)
    ]
    return [
        _run("kneading.order", order_laws, corpus),
        _run("kneading.forcing", forcing_sweep, 6, 60),
        _run("kneading.monotone-coding", monotone_coding, a, pairs),
    ]


def _corpus(rng: random.Random, count: int) -> list[UItinerary]:
    corpus = []
    for _ in range(count):
        pre_len = rng.randrange(0, 4)
        per_len = rng.randrange(1, 7)
        pre = tuple(rng.choice((-1, 0, +1)) for _ in range(pre_len))
        per = tuple(rng.choice((-1, 0, +1)) for _ in range(per_len))
        corpus.append(UItinerary(pre, per))
    return corpus


SUITES: dict[str, Callable[[int], list[Check]]] = {
    "cones": suite_cones,
    "orbits": suite_orbits,
    "convergence": suite_convergence,
    "partition": suite_partition,
    "kneading": suite_kneading,
}


def run_suite(name: str, seed: int) -> list[Check]:
    """The checks of one suite, or of every suite for "all"."""
    checks = []
    for suite in SUITES.values() if name == "all" else [SUITES[name]]:
        with _solve_once():
            checks += suite(seed)
    return checks
