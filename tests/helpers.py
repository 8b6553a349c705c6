"""Genuine-map oracles and independent references shared by the test
modules.

The oracles iterate the piecewise map (or its single-valued inverse,
b > 0) directly, with bisection on monotone pieces; the references
restate the branch formulas (composed maps, per-symbol line steps).
Nothing here touches the formal line/orbit machinery whose outputs the
tests check, except reference_brute_periodic's pattern search, which
restates the oracle's and so shares its core.cyclic_orbit solve.
"""

from __future__ import annotations

import math
import random

import lozilab as L
from lozilab.core import SingularSystemError, cyclic_orbit


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
            v = L.apply_inverse(p, v)
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


# The oracle's return-map Newton as it ran before the repeated-iterate
# exit: every seed runs to convergence, a guard or the full 60-iteration
# budget.  `iterates`, when given, collects each Newton iterate.

def full_budget_newton(p, seed, period, iterates=None):
    x, y = seed
    for _ in range(60):
        if iterates is not None:
            iterates.append((x, y))
        j11, j12, j21, j22 = 1.0, 0.0, 0.0, 1.0
        cx, cy = x, y
        for _ in range(period):
            s = +1.0 if cx >= 0.0 else -1.0
            m11, m12 = -s * p.a, -p.b
            j11, j12, j21, j22 = m11 * j11 + m12 * j21, m11 * j12 + m12 * j22, j11, j12
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


def seed_grid(grid_n):
    """brute_periodic's sheared seed lattice on [-2, 2]^2."""
    return [
        (-2.0 + 4.0 * (i * grid_n + j + 0.5) / grid_n**2, -2.0 + 4.0 * j / (grid_n - 1))
        for i in range(grid_n)
        for j in range(grid_n)
    ]


def reference_brute_periodic(p, period, grid_n):
    """brute_periodic restated without its shortcuts: full-budget Newton
    from every seed, then every cyclic shift of each sign pattern's orbit
    (symbol k of pattern j is + iff bit k of j is set), then a pairwise
    dedup at 1e-7 in the max norm with the forward check on each new root."""
    roots = [full_budget_newton(p, seed, period) for seed in seed_grid(grid_n)]
    roots = [r for r in roots if r is not None]
    for bits in range(2**period):
        signs = tuple(+1 if bits >> k & 1 else -1 for k in range(period))
        try:
            xs = cyclic_orbit(p, signs)
        except SingularSystemError:
            continue
        if all((x >= 0.0) == (s > 0) for x, s in zip(xs, signs)):
            roots.extend((xs[k], xs[k - 1]) for k in range(period))
    kept = []
    for v in roots:
        if any(close(v, q, 1e-7) for q in kept):
            continue
        if close(genuine_iterate(p, v, period), v, 1e-10):
            kept.append(v)
    return sorted(kept)
