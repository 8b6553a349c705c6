"""Acceptance gate: one test per criterion, each printing a PASS line with
its elapsed time and asserting the stated tolerance and runtime budget."""

import math
import random
import time
import warnings

import lozilab as L
from lozilab import verify
from lozilab.bifurcation import choose_m, solve_l, trace_curve
from lozilab.solvers import hybrid_root

from helpers import close


def _report(name, t0, limit, detail=""):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.2f}s (budget {limit:.0f}s) {detail}")
    assert elapsed < limit


def test_criterion_1_closed_form_exactness():
    t0 = time.time()
    p = L.Params(2.0, 0.0)
    mult = L.multipliers(p)
    assert abs(mult.lam - 2.0) < 1e-12
    assert abs(mult.mu) < 1e-12
    assert abs(L.fixed_points(p)[1][0] - 1.0 / 3.0) < 1e-12
    u_left = p.a - 2.0 * p.b - 1.0
    assert abs(u_left - 1.0) < 1e-12
    assert abs(L.r_value(p, math.inf) - 1.0) < 1e-12
    for m in range(1, 11):
        want = 1.0 - 2.0 / (2.0 ** (m - 1) * 3.0)
        assert abs(L.r_value(p, m) - want) < 1e-12
    _report("1 closed-form exactness", t0, 1.0)


def test_criterion_2_tent_geometry():
    t0 = time.time()

    def fold_minus_trace(m):
        return lambda a: (a - 1.0) - (1.0 - 2.0 / (a ** (m - 1) * (a + 1.0)))

    roots = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for m in range(2, 13):
            roots[m] = hybrid_root(
                fold_minus_trace(m), 1.38, 2.05, scan_n=60, xtol=1e-9, ftol=5e-14
            )
    assert abs(roots[2] - math.sqrt(2.0)) < 1e-10
    values = [roots[m] for m in range(2, 13)]
    assert all(x < y for x, y in zip(values, values[1:]))
    assert all(v < 2.0 for v in values)
    assert 2.0 - roots[12] < 5e-4  # approaching the accumulation value
    gaps = [2.0 - v for v in values]
    for m in range(3, 12):
        ratio = gaps[m - 1] / gaps[m - 2]
        assert 0.55 / roots[m] < ratio < 1.05 / roots[m]
    _report("2 tent geometry", t0, 1.0)


def test_criterion_3_formal_orbit_oracle_equivalence():
    t0 = time.time()
    params = [
        L.Params(a, b)
        for a in (1.7, 2.0, 2.3, 2.6, 2.9)
        for b in (0.0, 0.15, 0.3, 0.45, 0.6)
    ]
    assert len(params) == 25 and all(p.in_full for p in params)
    verify.orbit_residuals(params, range(1, 7))
    verify.orbit_equivalence(params, range(1, 7), 20)
    _report("3 formal-orbit oracle equivalence", t0, 120.0, f"{len(params)} parameters")


def test_criterion_4_cone_suite():
    t0 = time.time()
    rng = random.Random(2024)
    params = []
    for _ in range(500):
        b = rng.uniform(0.0, 1.0)
        params.append(L.Params(rng.uniform(b + 1.02, 4.0), b))
        rng.randrange(10**9)  # each parameter's retired sampling seed, drawn to keep the grid
    _report("4 cone suite", t0, 10.0, verify.cone_sweep(params))


def test_criterion_5_convergence_rates():
    t0 = time.time()
    grid = []
    for j in range(10):
        b = 0.3 * (j + 1) / 10
        for i in range(20):
            a = (3.0 * b + 1.05) + (4.0 - 3.0 * b - 1.1) * i / 19
            grid.append(L.Params(a, b))
    assert len(grid) == 200
    # literal bounds, so loosening the constants in geometry cannot pass here
    verify.r_bounds(grid, 0.2, 2.25)
    verify.u_bounds(grid, 0.25, (64.0 / 7.0) * math.log(2.0))
    _report("5 convergence-rate suite", t0, 30.0, "200-point grid, m = 2..12")


def test_criterion_6_bifurcation_point_certificates():
    t0 = time.time()
    for m in (5, 8, 12):
        for n in (2, 3):
            for b in (0.0, 0.01, 0.03):
                point_t0 = time.time()
                a = solve_l(b, m, n)
                p = L.Params(a, b)
                assert abs(L.p_value(p, m, n) - L.q_value(p, m, n)) < 1e-11
                fp_minus = L.formal_periodic_point(p, L.iota(-1, m, n))
                fp_plus = L.formal_periodic_point(p, L.iota(+1, m, n))
                assert close(fp_minus.point, fp_plus.point, 1e-8)
                assert abs(fp_minus.admissibility) < 1e-8
                assert abs(fp_plus.admissibility) < 1e-8
                above = L.Params(a + 1e-3, b)
                below = L.Params(a - 1e-3, b)
                assert all(
                    L.formal_periodic_point(above, L.iota(s, m, n)).hyperbolic
                    for s in (-1, +1)
                )
                assert any(
                    L.formal_periodic_point(below, L.iota(s, m, n)).admissibility < 0.0
                    for s in (-1, +1)
                )
                assert time.time() - point_t0 < 30.0
    _report("6 bifurcation-point certificates", t0, 18 * 30.0, "18 points")


def test_criterion_7_order_reversal(reversal):
    t0 = time.time()
    b_bar, result = reversal
    # downward scan delivered a certified reversal
    assert result.m == choose_m(b_bar)
    gap0 = result.curve2.samples[0][1] - result.curve3.samples[0][1]
    gap1 = result.curve2.samples[-1][1] - result.curve3.samples[-1][1]
    assert gap0 < 0.0 < gap1
    gaps = [a2 - a3 for (_, a2), (_, a3) in zip(result.curve2.samples, result.curve3.samples)]
    flips = sum(
        1 for k in range(len(gaps) - 1) if (gaps[k] < 0.0) != (gaps[k + 1] < 0.0)
    )
    assert flips == 1
    assert all(s2 > s3 for s2, s3 in zip(result.curve2.dadb, result.curve3.dadb))
    assert result.slope2 > result.slope3

    # the wider curve family: one crossing per m, none within fixed n
    grid = [0.07 * i / 70 for i in range(71)]
    curves = {}
    for m in range(4, 15):
        for n in (2, 3):
            curves[(m, n)] = trace_curve(m, n, grid)
    for m in range(4, 15):
        family_gaps = [
            a2 - a3
            for (_, a2), (_, a3) in zip(curves[(m, 2)].samples, curves[(m, 3)].samples)
        ]
        crossings = sum(
            1
            for k in range(len(family_gaps) - 1)
            if (family_gaps[k] < 0.0) != (family_gaps[k + 1] < 0.0)
        )
        assert crossings == 1
    for n in (2, 3):
        for m in range(4, 14):
            pairs = zip(curves[(m, n)].samples, curves[(m + 1, n)].samples)
            assert all(low[1] < high[1] for low, high in pairs)
    _report(
        "7 order-reversal reproduction",
        t0,
        300.0,
        f"m={result.m}, b_bar={b_bar!r}, b*={result.b_star:.3e}",
    )


def test_criterion_8_kneading_baseline():
    t0 = time.time()
    verify.forcing_sweep(8, 200)
    rng = random.Random(99)
    corpus = []
    for _ in range(34):
        pre = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randrange(0, 4)))
        per = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randrange(1, 7)))
        corpus.append(L.UItinerary(pre, per))
    pairs = len(corpus) * (len(corpus) - 1)
    assert pairs >= 500
    verify.order_laws(corpus)
    _report("8 kneading baseline", t0, 60.0, f"{pairs} ordered pairs")
