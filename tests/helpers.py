"""Genuine-map oracles and independent references shared by the test
modules.

The oracles iterate the piecewise map (or its single-valued inverse,
b > 0) directly, with bisection on monotone pieces; the references
restate the branch formulas (composed maps, per-symbol line steps).
Nothing here touches the formal line/orbit machinery whose outputs the
tests check, except reference_brute_periodic's pattern search, which
restates the oracle's and so shares its core.cyclic_orbit solve, and
reference_cold_root, which composes the solvers' scan, bisection and
Newton steps the way the cold root solve once did.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

import lozilab as L
from lozilab import oracle
from lozilab.core import (
    DomainError,
    _require_count,
    _require_full,
    apply_map,
    cyclic_orbit,
    multipliers,
)
from lozilab.kneading import UItineraryError
from lozilab.solvers import (
    BracketError,
    MultipleRootWarning,
    bisect,
    newton_polish,
    scan_brackets,
)


def full_family_examples(seed, count=100, max_len=200):
    """(p, word) examples over b in [0, 1], a in [b + 1.05, 4] and sign
    words of length 1..max_len.

    First the corners, each with a constant and a random word: b = 0 and
    1, a = b + 1.05 and 4, length 1 and max_len.  Then `count` draws from
    random.Random(seed): b and a uniform, and a word of uniform signs whose
    length is uniform on 1..8 in every other draw and on 1..max_len in the
    rest, so short words stay as common as long ones.
    """
    rng = random.Random(seed)

    def word(length):
        return [rng.choice((-1, 1)) for _ in range(length)]

    for b in (0.0, 1.0):
        for a in (b + 1.05, 4.0):
            for length in (1, max_len):
                yield L.Params(a, b), [1] * length
                yield L.Params(a, b), word(length)
    for k in range(count):
        b = rng.uniform(0.0, 1.0)
        a = rng.uniform(b + 1.05, 4.0)
        yield L.Params(a, b), word(rng.randint(1, 8 if k % 2 == 0 else max_len))


def close(u, v, tol):
    """Within tol in the max norm; a NaN difference is not close."""
    return abs(u[0] - v[0]) <= tol and abs(u[1] - v[1]) <= tol


def genuine_iterate(p, v, steps):
    for _ in range(steps):
        v = L.apply_map(p, v)
    return v


# -- branch formulas, restated from the map's definition --------------------


class NonInvertibleError(L.DomainError):
    """Point inversion requested for the degenerate (b = 0) map."""


def apply_branch(p, sigma, v):
    """One step of the formal sigma-branch, applied regardless of sign(x)."""
    x, y = v
    return (-sigma * p.a * x - p.b * y + (p.a - p.b - 1.0), x)


def apply_inverse(p, v):
    """Genuine inverse step; the map is a homeomorphism only for b > 0."""
    if p.b == 0.0:
        raise NonInvertibleError("the map is not invertible at b = 0")
    x, y = v
    return (y, (-p.a * abs(y) + (p.a - p.b - 1.0) - x) / p.b)


def apply_branch_inverse(p, sigma, v):
    """Formal inverse of the sigma-branch (b > 0)."""
    if p.b == 0.0:
        raise NonInvertibleError("branches are not invertible at b = 0")
    x, y = v
    return (y, (-sigma * p.a * y + (p.a - p.b - 1.0) - x) / p.b)


def epsilon(word):
    """Orientation (-1)^N of a finite word, N = number of + symbols."""
    sign = 1
    for s in word:
        if s == +1:
            sign = -sign
        elif s != -1:
            raise UItineraryError("orientation is defined only for words over {-, +}")
    return sign


def shift(seq, k=1):
    """The U-itinerary `seq` with its first k symbols dropped."""
    if k <= len(seq.preperiod):
        return L.UItinerary(seq.preperiod[k:], seq.period)
    r = (k - len(seq.preperiod)) % len(seq.period)
    return L.UItinerary((), seq.period[r:] + seq.period[:r])


def exists_Cmn(p, m, n):
    """Whether the depth-two strip pair C_{m,n} splits off two components.

    Sufficient condition: the n-th stable trace does not exceed the m-th
    left fold.  Exact ties, to 1e-12, count as existing (strips are closed).
    """
    if m < 2 or n < 2:
        raise L.DomainError(f"need m, n >= 2, got ({m}, {n})")
    return L.r_value(p, n) <= L.u_value(p, m, "L") + 1e-12


def fold_oracle(p, word, y0, x_lo, x_hi, n_scan=4000):
    """Fold abscissa of the (len(word)+1)-step image of the segment {y=y0}.

    Bisects the initial x whose genuine orbit follows `word` and lands on
    the switching line, then returns the x-coordinate of the next image.
    """

    def walk(x):
        v = (x, y0)
        for s in word:
            if (v[0] >= 0.0) != (s > 0):
                return None
            v = L.apply_map(p, v)
        return v[0]

    xs = [x_lo + (x_hi - x_lo) * i / n_scan for i in range(n_scan + 1)]
    vals = [(x, walk(x)) for x in xs]
    vals = [(x, f) for x, f in vals if f is not None]
    step = 1.5 * (x_hi - x_lo) / n_scan
    for (x0, f0), (x1, f1) in zip(vals, vals[1:]):
        if x1 - x0 > step or (f0 < 0.0) == (f1 < 0.0):
            continue
        for _ in range(80):
            xm = 0.5 * (x0 + x1)
            fm = walk(xm)
            if fm is None:
                break
            if (fm < 0.0) == (f0 < 0.0):
                x0, f0 = xm, fm
            else:
                x1, f1 = xm, fm
        xc = 0.5 * (x0 + x1)
        image = genuine_iterate(p, (xc, y0), len(word) + 1)
        return xc, image[0]
    return None


def stable_polyline_crossing(p, m, near, n_scan=8000):
    """x-axis crossing of the m-step backward image of the primary stable
    segment of the right fixed point, chosen nearest to `near`.

    Uses only the genuine single-valued inverse (b > 0).
    """
    mult = L.multipliers(p)
    zeta = L.fixed_points(p)[1][0]
    v1 = (1.0 + mult.lam / p.b) * zeta
    v2 = (1.0 - (mult.lam / p.b) ** 2) * zeta
    e0, e1 = (0.0, v1), (v1, v2)

    def back(t):
        v = (e0[0] + t * (e1[0] - e0[0]), e0[1] + t * (e1[1] - e0[1]))
        for _ in range(m):
            v = apply_inverse(p, v)
        return v

    best = None
    prev_t, prev = 0.0, back(0.0)
    for i in range(1, n_scan + 1):
        t = i / n_scan
        cur = back(t)
        if (prev[1] < 0.0) != (cur[1] < 0.0):
            t0, t1, y0 = prev_t, t, prev[1]
            for _ in range(60):
                tm = 0.5 * (t0 + t1)
                ym = back(tm)[1]
                if (ym < 0.0) == (y0 < 0.0):
                    t0, y0 = tm, ym
                else:
                    t1 = tm
            x = back(0.5 * (t0 + t1))[0]
            if best is None or abs(x - near) < abs(best - near):
                best = x
        prev_t, prev = t, cur
    return best


def tent_orbit_crossing(p, word, x_lo=0.0, x_hi=1.0, n_scan=4000):
    """The point on the x-axis whose genuine orbit follows `word` and lands
    on the switching line at the final step (any b >= 0)."""
    result = fold_oracle(p, word, 0.0, x_lo, x_hi, n_scan=n_scan)
    return None if result is None else result[0]


# Per-symbol line steps, restated from the branch formulas one symbol at a
# time and reading p.a, p.b at every step; the package's word loops must
# agree with them to the last bit.

def ref_push(p, sigma, slope, k):
    """One forward branch step on the line (slope, k), (0, k) on it."""
    denom = p.b * slope + sigma * p.a
    return -1.0 / denom, (p.a - p.b - 1.0 - p.b * k) / denom


def ref_pull(p, sigma, vslope, c):
    """One inverse branch step on the near-vertical line (vslope, c), (c, 0) on it."""
    denom = vslope + sigma * p.a
    return -p.b / denom, (p.a - p.b - 1.0 - c) / denom


def ref_push_word(p, word, slope, k):
    for sigma in word:
        slope, k = ref_push(p, sigma, slope, k)
    return slope, k


def ref_pull_word(p, word, vslope, c):
    for sigma in reversed(word):
        vslope, c = ref_pull(p, sigma, vslope, c)
    return vslope, c


def ref_fold(p, word, slope, k):
    """Fold abscissa of the full-map image of the pushed line."""
    k = ref_push_word(p, word, slope, k)[1]
    return (p.a - p.b - 1.0) - p.b * k


def ref_u_gap(p, m, side):
    """u_inf - u_m on `side` by the slope-gap / crossing-gap recursion,
    one ref_push a step, each rung recomputed from m = 2."""
    lam = L.multipliers(p).lam
    s, k = ref_push(p, +1, 0.0, -1.0 if side == "L" else 1.0)
    e = 1.0 / lam + 1.0 / p.a
    d = k - (1.0 - lam) / lam
    for _ in range(m - 2):
        denom = p.a - p.b * s
        d = p.b * ((lam - 1.0) * e + lam * d) / (denom * lam)
        e = e * p.b / (denom * lam)
        s = ref_push(p, -1, s, 0.0)[0]
    return p.b * d


def ref_return_word(m, n):
    return (+1,) + (-1,) * (m - 2) + (+1, +1) + (-1,) * (n - 2)


# Composed branch maps, multiplied out from the branch formulas: the
# reference for the cyclic orbit solver and the paper's spectral bound.

def compose(p, word):
    """(A, t) with v |-> A v + t the composition of the sigma-branches,
    first symbol first; A is row-major, each branch is
    ((-sigma a, -b), (1, 0)) v + (a - b - 1, 0)."""
    a11, a12, a21, a22 = 1.0, 0.0, 0.0, 1.0
    t1 = t2 = 0.0
    c = p.a - p.b - 1.0
    for sigma in word:
        m11, m12 = -sigma * p.a, -p.b
        a11, a12, a21, a22 = m11 * a11 + m12 * a21, m11 * a12 + m12 * a22, a11, a12
        t1, t2 = m11 * t1 + m12 * t2 + c, t1
    return (a11, a12, a21, a22), (t1, t2)


def affine_apply(A, t, v):
    return (A[0] * v[0] + A[1] * v[1] + t[0], A[2] * v[0] + A[3] * v[1] + t[1])


def det(A):
    return A[0] * A[3] - A[1] * A[2]


def spectral_radius(A):
    """Largest eigenvalue modulus of the 2x2 matrix A, in closed form."""
    tr = A[0] + A[3]
    disc = tr * tr - 4.0 * det(A)
    if disc < 0.0:
        return math.sqrt(det(A))  # complex pair: |eig|^2 = det
    return 0.5 * max(abs(tr + math.sqrt(disc)), abs(tr - math.sqrt(disc)))


def newton_step(A, t, v):
    """One Newton step on v -> A v + t - v; it lands on the fixed point of
    the affine map from any seed."""
    j11, j12, j21, j22 = A[0] - 1.0, A[1], A[2], A[3] - 1.0
    d = j11 * j22 - j12 * j21
    w = affine_apply(A, t, v)
    fx, fy = w[0] - v[0], w[1] - v[1]
    return (v[0] - (fx * j22 - fy * j12) / d, v[1] - (fy * j11 - fx * j21) / d)


def seed_evaluation(p, v, period):
    """map^period(v) by apply_map's operations, and the product of the
    branch matrices ((-s a, -b), (1, 0)) of the signs it meets, first sign
    first: the evaluation return-map Newton makes at v, restated for one
    point.  An x that is NaN takes the minus branch (s = -1)."""
    j11, j12, j21, j22 = 1.0, 0.0, 0.0, 1.0
    cx, cy = v
    for _ in range(period):
        s = +1.0 if cx >= 0.0 else -1.0
        m11, m12 = -s * p.a, -p.b
        j11, j12, j21, j22 = m11 * j11 + m12 * j21, m11 * j12 + m12 * j22, j11, j12
        cx, cy = -p.a * abs(cx) - p.b * cy + (p.a - p.b - 1.0), cx
    return (cx, cy), (j11, j12, j21, j22)


# The oracle's return-map Newton as it ran before the repeated-iterate
# exit and the seed lattice's first evaluation, and with the far-iterate
# guard it has since lost (an iterate beyond `far` gives up; math.inf
# turns the guard off, as in the oracle): every seed runs to convergence,
# a guard or the full 60-iteration budget, evaluating each iterate itself.
# `iterates`, when given, collects each Newton iterate.

def full_budget_newton(p, seed, period, iterates=None, far=1e6):
    x, y = seed
    for _ in range(60):
        if iterates is not None:
            iterates.append((x, y))
        (cx, cy), (j11, j12, j21, j22) = seed_evaluation(p, (x, y), period)
        fx, fy = cx - x, cy - y
        if abs(fx) < 1e-13 and abs(fy) < 1e-13:
            return (x, y)
        d11, d12, d21, d22 = j11 - 1.0, j12, j21, j22 - 1.0
        det = d11 * d22 - d12 * d21
        if abs(det) < 1e-14:
            return None
        x -= (fx * d22 - fy * d12) / det
        y -= (fy * d11 - fx * d21) / det
        if abs(x) > far or abs(y) > far:
            return None
    return None


def seed_grid(grid_n):
    """brute_periodic's sheared seed lattice on [-2, 2]^2."""
    return [
        (-2.0 + 4.0 * (i * grid_n + j + 0.5) / grid_n**2, -2.0 + 4.0 * j / (grid_n - 1))
        for i in range(grid_n)
        for j in range(grid_n)
    ]


def counted_point_sets(monkeypatch):
    """The (p, period) of each brute_periodic point-set computation on a
    10, 15 or 20 grid, counted at its first grid Newton run, which starts
    from the grid's first seed (no other seed of these grids)."""
    runs = []
    newton = oracle._return_map_newton
    firsts = {oracle._seed_grid(n)[0] for n in (10, 15, 20)}

    def counted(p, seed, period, image, jac):
        if seed in firsts:
            runs.append((p, period))
        return newton(p, seed, period, image, jac)

    monkeypatch.setattr(oracle, "_return_map_newton", counted)
    return runs


def reference_brute_periodic(p, period, grid_n):
    """brute_periodic restated without its shortcuts: every cyclic shift
    of the orbit of each sign word j (symbol k is + iff bit k of j is set)
    that is least among its rotations' j, whose pattern holds up to the
    tie, s_k x_k >= -1e-13, then a pairwise dedup at 1e-7 in the max norm
    with the forward check on each new root.  A full-budget Newton root
    from any seed farther than 1e-7 from every kept point raises
    AssertionError."""
    roots = []
    for bits in range(2**period):
        # rotating the word by k rotates the bits of j right by k
        rotated = (bits >> k | bits << (period - k) & (2**period - 1) for k in range(period))
        if bits != min(rotated):
            continue
        signs = tuple(+1 if bits >> k & 1 else -1 for k in range(period))
        xs = cyclic_orbit(p, signs)
        if all(s * x >= -1e-13 for x, s in zip(xs, signs)):
            roots.extend((xs[k], xs[k - 1]) for k in range(period))
    kept = []
    for v in roots:
        if any(close(v, q, 1e-7) for q in kept):
            continue
        if close(genuine_iterate(p, v, period), v, 1e-10):
            kept.append(v)
    for seed in seed_grid(grid_n):
        root = full_budget_newton(p, seed, period)
        if root is not None and not any(close(root, q, 1e-7) for q in kept):
            raise AssertionError(f"Newton root {root!r} from {seed!r} is missing at {p}")
    return sorted(kept)


def border_parameters(seed, count=20):
    """`count` (p, word) pairs on border collisions, drawn from
    random.Random(seed): a word of uniform signs and length uniform on
    2..8, and b = 0 in every other draw, uniform on [0, 0.5] in the rest.
    A 64-step scan of a over (b + 1, 4] looks for a sign change of
    formal_periodic_point(p, word).admissibility, bisected down to
    adjacent floats; p is the end where the admissibility is >= 0, so the
    word's orbit exists and one of its points is within rounding of x = 0.
    Draws without a sign change are skipped."""
    rng = random.Random(seed)
    found, draws = [], 0
    while len(found) < count:
        word = tuple(rng.choice((-1, 1)) for _ in range(rng.randint(2, 8)))
        b = 0.0 if draws % 2 == 0 else rng.uniform(0.0, 0.5)
        draws += 1

        def admissible(a):
            return L.formal_periodic_point(L.Params(a, b), word).admissibility >= 0.0

        grid = [b + 1.0 + (3.0 - b) * i / 64 for i in range(1, 65)]
        pairs = [(lo, hi) for lo, hi in zip(grid, grid[1:]) if admissible(lo) != admissible(hi)]
        if not pairs:
            continue
        lo, hi = pairs[0]
        side = admissible(lo)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if admissible(mid) == side:
                lo = mid
            else:
                hi = mid
        found.append((L.Params(lo if side else hi, b), word))
    return found


def reference_cone_check(p, samples, seed=0):
    """oracle.cone_check as it ran before it tested only the smaller branch
    image: both branches s = -1, +1 of every sample, each through the cone
    test and the three norm-growth tests.  It reads the multipliers through
    oracle.multipliers, so a test that patches them patches both."""
    mult = oracle.multipliers(p)
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
            if not _reference_norms_grow((x, y), (wx, wy), lam * (1.0 - eps)):
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
            if not _reference_norms_grow((x2, y2), (wx, wy), (1.0 / mu) * (1.0 - eps)):
                return False
    return True


def reference_ray_check(p, n=400):
    """oracle.cone_check's decision by brute force on each cone's rays
    (1, u), 0 <= u <= h, with smaller branch image (W(u), 1): the cone
    test and the three norm-growth tests at n + 1 evenly spaced u and at
    every break of a test that is piecewise in u, namely the kink of W,
    the two u where W = 1, u = 1, and the vertex of the L2 test's
    quadratic when it is convex.  It reads the multipliers through
    oracle.multipliers, so a test that patches them patches both."""
    mult = oracle.multipliers(p)
    a, b, eps = p.a, p.b, 1e-12
    # (c, d, h, k): W = |a - c u| / d on [0, h], growth k
    sides = [(b, 1.0, 1.0 / mult.lam, mult.lam)]
    if b != 0.0:
        sides.append((1.0, b, mult.mu, 1.0 / mult.mu))
    for c, d, h, k in sides:
        f = k * (1.0 - eps)
        rays = [h * (i / n) for i in range(n + 1)] + [1.0]
        if c != 0.0:
            rays += [a / c, (a - d) / c, (a + d) / c]
        if (c / d) ** 2 > f * f:
            rays.append(a * c / (d * d) / ((c / d) ** 2 - f * f))
        for u in rays:
            w = abs(a - c * u) / d
            if 0.0 <= u <= h and (
                k > w * (1.0 + eps) or not _reference_norms_grow((1.0, u), (w, 1.0), f)
            ):
                return False
    return True


def _reference_norms_grow(v, w, factor):
    ax, ay = abs(v[0]), abs(v[1])
    bx, by = abs(w[0]), abs(w[1])
    return (
        bx + by >= factor * (ax + ay)
        and bx * bx + by * by >= factor * factor * (ax * ax + ay * ay)
        and max(bx, by) >= factor * max(ax, ay)
    )


@dataclass(frozen=True)
class _ReferenceTrappingLines:
    """Boundary lines of the trapping triangle of the left fixed point.

    chi: x = mu*(y+1) - 1 (stable line), phi1: y = (x+1)/lam - 1 (unstable
    line), phi2: the plus-branch image of phi1, through (lam-1, 0) with
    slope -1/(a+mu).
    """

    mu: float
    lam: float
    u_inf: float
    phi2_slope: float

    def chi_x(self, y: float) -> float:
        return self.mu * (y + 1.0) - 1.0

    def phi1_y(self, x: float) -> float:
        return (x + 1.0) / self.lam - 1.0

    def phi2_y(self, x: float) -> float:
        return self.phi2_slope * (x - self.u_inf)

    def in_escape(self, v) -> bool:
        # open wedge: demand a strict margin so boundary points within
        # float noise of the stable line are not misread as escaping
        return v[0] < self.chi_x(v[1]) - 1e-12 and v[0] < 0.0

    def in_trap(self, v) -> bool:
        x, y = v
        return (
            x >= self.chi_x(y) - 1e-12
            and y >= self.phi1_y(x) - 1e-12
            and y <= self.phi2_y(x) + 1e-12
        )


def _reference_trapping_lines(p):
    _require_full(p)
    mult = multipliers(p)
    return _ReferenceTrappingLines(
        mu=mult.mu,
        lam=mult.lam,
        u_inf=mult.lam - 1.0,
        phi2_slope=-1.0 / (p.a + mult.mu),
    )


def reference_classify_orbit(p, v, max_iter=100_000):
    """oracle.classify_orbit as it ran before it read the trapping
    triangle inline: the triangle's lines as a frozen dataclass whose
    methods test escape and trapping, restated verbatim but for the
    refusal of a triangle that fails to close, which no parameter of the
    full family reaches (test_trapping_triangle_closes_in_the_full_family)."""
    if not (math.isfinite(v[0]) and math.isfinite(v[1])):
        raise DomainError(f"start point {v!r} is not finite")
    _require_count("max_iter", max_iter, 0)
    lines = _reference_trapping_lines(p)
    streak_start = -1
    streak_points = []
    for i in range(max_iter + 1):
        if lines.in_escape(v) or v[0] < -1e10:
            return oracle.OrbitClass(kind=oracle.OrbitKind.ESCAPES_MINUS_INFINITY, witness=i)
        if lines.in_trap(v):
            if streak_start < 0:
                streak_start, streak_points = i, []
            if i - streak_start + 1 >= 100 or any(
                abs(v[0] - w[0]) <= 1e-9 and abs(v[1] - w[1]) <= 1e-9
                for w in streak_points
            ):
                return oracle.OrbitClass(kind=oracle.OrbitKind.TRAPPED, witness=streak_start)
            streak_points.append(v)
        else:
            streak_start = -1
        v = apply_map(p, v)
    raise oracle.BudgetError(f"no classification within {max_iter} iterations", v)


def reference_cold_root(f, lo, hi, scan_n, xtol, ftol):
    """solvers.hybrid_root without a guess as it ran before its final cell
    came from predicted_cell: the scan, a warning when it is non-monotone
    or shows several sign changes, bisection of the last bracket to xtol,
    then Newton from the final cell's midpoint."""
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


def reference_tent_code(a, x, length):
    """verify._tent_code as it ran before it yielded its symbols: the
    whole list of the first `length` tent-orbit signs of x."""
    code = []
    for _ in range(length):
        code.append(0 if x == 0.0 else (+1 if x > 0.0 else -1))
        x = -a * abs(x) + (a - 1.0)
    return code
