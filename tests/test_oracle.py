import json
import math
import random
from pathlib import Path

import pytest

from lozilab import (
    OrbitKind,
    Params,
    apply_map,
    brute_periodic,
    classify_orbit,
    cone_check,
    fixed_points,
    formal_periodic_point,
    multipliers,
    orbit_signs,
)
from lozilab import oracle, verify
from lozilab.core import DomainError, RegionError
from lozilab.oracle import BudgetError, trapping_lines

from helpers import close, compose, full_budget_newton, reference_brute_periodic, seed_grid

P18 = Params(1.8, 0.2)
# repr of every brute_periodic point (periods 1-6, grid 20) at the five
# edge points of the orbit_oracle benchmark and two interior points, as
# returned before the repeated-iterate Newton exit and the cell dedup
RECORDED_BRUTE = Path(__file__).parent / "data" / "brute_periodic_pins.json"


def test_brute_fixed_points_degenerate():
    points = brute_periodic(Params(2.0, 0.0), 1, grid_n=15)
    assert len(points) == 2
    assert close(points[0], (-1.0, -1.0), 1e-9)
    assert close(points[1], (1 / 3, 1 / 3), 1e-9)


def test_brute_two_cycle_matches_formal_coding():
    points = brute_periodic(P18, 2, grid_n=20)
    # both fixed points plus the genuine two-cycle
    assert len(points) == 4
    for v in points:
        word = orbit_signs(P18, v, 2)
        fp = formal_periodic_point(P18, word)
        assert fp.admissibility >= -1e-9
        assert close(fp.point, v, 1e-7)
    cycle = [v for v in points if orbit_signs(P18, v, 2) in ((1, -1), (-1, 1))]
    assert len(cycle) == 2
    assert any(close(v, (5 / 13, -1 / 13), 1e-9) for v in cycle)


def test_brute_period_contains_divisors():
    fixed = brute_periodic(P18, 1, grid_n=15)
    period3 = brute_periodic(P18, 3, grid_n=15)
    for v in fixed:
        assert any(close(v, w, 1e-7) for w in period3)
    period6 = brute_periodic(P18, 6, grid_n=15)
    for d in (1, 2, 3):
        for v in brute_periodic(P18, d, grid_n=15):
            assert any(close(v, w, 1e-7) for w in period6), (d, v)


def test_brute_periodic_does_not_recurse(monkeypatch):
    calls = []
    inner = oracle.brute_periodic

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(oracle, "brute_periodic", counted)
    oracle.brute_periodic(P18, 6, grid_n=10)
    assert len(calls) == 1


def test_pattern_search_alone_finds_every_orbit(monkeypatch):
    # the sign-pattern search shares its solver with formal_periodic_point;
    # with the grid search switched off it must still find every point
    params = (P18, Params(2.4, 0.4), Params(1.9, 0.0))
    full = {(p, n): brute_periodic(p, n, grid_n=20) for p in params for n in range(1, 7)}
    monkeypatch.setattr(oracle, "_return_map_newton", lambda p, seed, period, jacobians: None)
    for (p, period), points in full.items():
        alone = brute_periodic(p, period, grid_n=2)
        assert len(alone) == len(points), (p, period)
        assert all(close(u, v, 1e-12) for u, v in zip(alone, points)), (p, period)


def test_brute_equivalence_with_admissible_formal():
    verify.orbit_equivalence((P18, Params(2.4, 0.4), Params(1.9, 0.0)), range(1, 5), 20)


def test_brute_periodic_matches_recorded_bytes():
    recorded = json.loads(RECORDED_BRUTE.read_text())
    grid_n = recorded["grid_n"]
    for case in recorded["cases"]:
        points = brute_periodic(Params(case["a"], case["b"]), case["period"], grid_n=grid_n)
        assert [repr(v) for v in points] == case["points"], (case["a"], case["b"], case["period"])


def test_newton_cycle_exit_equals_full_budget():
    cycled = 0
    for a, b in ((1.7, 0.0), (1.7, 0.2), (2.3, 0.0), (2.9, 0.6)):
        p = Params(a, b)
        for period in range(1, 7):
            # one Jacobian dict per (p, period), as brute_periodic shares it
            jacobians = {}
            for seed in seed_grid(20):
                iterates = []
                want = full_budget_newton(p, seed, period, iterates)
                got = oracle._return_map_newton(p, seed, period, jacobians)
                assert got == want, (a, b, period, seed)
                cycled += len(set(iterates)) < len(iterates)
    # the exit is exercised: some seeds repeat an iterate within the budget
    assert cycled > 0
    # and a slow convergence, from a seed that wanders for 28 steps without
    # repeating, is not cut short
    p, seed, iterates = Params(1.431, 0.0), (-0.19, 1.0), []
    want = full_budget_newton(p, seed, 10, iterates)
    assert want is not None and len(iterates) == len(set(iterates)) == 29
    assert oracle._return_map_newton(p, seed, 10, {}) == want


def test_jacobian_per_sign_word_equals_inline_product():
    # compose multiplies the branch matrices with the same operations, in
    # the same order, as full_budget_newton does inline along an orbit
    for a, b in ((1.7, 0.0), (2.3, 0.3), (2.9, 1.0), (1e3, 0.5)):
        p = Params(a, b)
        for period in range(1, 11):
            for key in range(2**period):
                # bit period-1-k of key is the sign of step k, 1 for x >= 0
                signs = [+1.0 if key >> (period - 1 - k) & 1 else -1.0 for k in range(period)]
                j11, j12, j21, j22 = compose(p, signs)[0]
                d11, d12, d21, d22 = j11 - 1.0, j12, j21, j22 - 1.0
                want = (d11, d12, d21, d22, d11 * d22 - d12 * d21)
                assert oracle._jacobian(a, b, key, period) == want, (a, b, period, key)


# criterion 3's 25 points; two more at b = 0, (1.431, 0) with a slowly
# converging Newton seed; two at large a, where every sign pattern has an
# orbit
REFERENCE_POINTS = [(a, b) for a in (1.7, 2.0, 2.3, 2.6, 2.9) for b in (0.0, 0.15, 0.3, 0.45, 0.6)]
REFERENCE_POINTS += [(1.9, 0.0), (1.431, 0.0), (1e3, 0.5), (1e15, 0.5)]
REFERENCE_RUNS = [(period, grid_n) for period in range(1, 9) for grid_n in (2, 15, 20)]


def test_brute_periodic_equals_reference():
    # point i runs REFERENCE_RUNS[i % 24], so every point and every
    # (period, grid_n) is covered once, in about 0.5 s; each point at every
    # run (696 calls) takes about 10 s
    for i, (a, b) in enumerate(REFERENCE_POINTS):
        period, grid_n = REFERENCE_RUNS[i % len(REFERENCE_RUNS)]
        p = Params(a, b)
        want = reference_brute_periodic(p, period, grid_n)
        assert repr(brute_periodic(p, period, grid_n=grid_n)) == repr(want), (a, b, period, grid_n)


CELL = oracle._CELL


@pytest.mark.parametrize("edge", [0.0, 3 * CELL, -7 * CELL, 1.7 // CELL * CELL])
@pytest.mark.parametrize("axes", [(1, 0), (0, 1), (1, 1)])
def test_dedup_across_cell_boundaries(edge, axes):
    for gap, merged in ((0.99e-7, True), (1.01e-7, False)):
        first = (edge - 0.5 * gap * axes[0] + 0.3 * (1 - axes[0]),
                 edge - 0.5 * gap * axes[1] - 0.4 * (1 - axes[1]))
        second = (first[0] + gap * axes[0], first[1] + gap * axes[1])
        # the pair straddles the cell edge on each axis it moves along
        for k in range(2):
            if axes[k]:
                assert first[k] // CELL != second[k] // CELL
        kept = oracle._distinct([first, second], lambda v: True)
        assert kept == ([first] if merged else [first, second]), (gap, first, second)
        assert oracle._distinct([second, first], lambda v: True) == ([second] if merged else [second, first])
        # a rejected root is not indexed, so it hides nothing
        assert oracle._distinct([first, second], lambda v: v != first) == [second]
        # exact repeats of a kept, a merged or a rejected root change
        # nothing, and `accept` sees each distinct value at most once
        repeated = [first, second, first, second, second, first]
        for accept, want in ((lambda v: True, kept), (lambda v: v != first, [second])):
            calls = []
            assert oracle._distinct(repeated, lambda v: calls.append(v) or accept(v)) == want
            assert len(calls) == len(set(calls)), calls


def test_dedup_non_finite_roots_do_not_raise():
    roots = [(math.nan, 0.0), (math.inf, 1.0), (0.5, -math.inf), (0.5, 0.5), (0.5, 0.5)]
    assert oracle._distinct(roots, lambda v: math.isfinite(v[0] + v[1])) == [(0.5, 0.5)]
    assert len(oracle._distinct(roots, lambda v: True)) == 4


def test_dedup_signed_zero_repeat():
    # -0.0 == 0.0, and both map alike: the first seen is kept, once
    calls = []
    roots = [(-0.0, 0.25), (0.0, 0.25), (0.25, -0.0), (0.25, 0.0)]
    kept = oracle._distinct(roots, lambda v: calls.append(v) or True)
    assert kept == calls == [(-0.0, 0.25), (0.25, -0.0)]
    assert math.copysign(1.0, kept[0][0]) == math.copysign(1.0, kept[1][1]) == -1.0


def test_verified_root_refuses_nan():
    p = Params(2.0, 0.3)
    z = fixed_points(p)[1]
    for period in (1, 2):
        assert oracle._verified_root(p, z, period) == z
        for v in ((math.nan, z[1]), (z[0], math.nan), (math.nan, math.nan)):
            assert oracle._verified_root(p, v, period) is None, (v, period)


def test_brute_rejects_bad_inputs():
    with pytest.raises(RegionError):
        brute_periodic(Params(1.1, 0.2), 2, grid_n=10)
    with pytest.raises(DomainError):
        brute_periodic(P18, 11, grid_n=10)
    with pytest.raises(DomainError):
        brute_periodic(P18, 2, grid_n=1)


def test_cone_example_vectors():
    p = Params(2.0, 0.0)
    mult = multipliers(p)
    # (1, 0) maps to (-sigma*2, 1): in-cone and L2-grown by sqrt(5) >= 2
    for sigma in (-1, 1):
        wx, wy = -sigma * p.a * 1.0, 1.0
        assert abs(wy) <= abs(wx) / mult.lam
        assert (wx * wx + wy * wy) ** 0.5 >= mult.lam
    # boundary ray stays in the closed cone
    x, y = 1.0, 1.0 / mult.lam
    for sigma in (-1, 1):
        wx, wy = -sigma * p.a * x - p.b * y, x
        assert abs(wy) <= abs(wx) / mult.lam * (1 + 1e-12)


def test_cone_sweep_many_parameters():
    rng = random.Random(10)
    cases = []
    for _ in range(60):
        b = rng.uniform(0.0, 1.0)
        a = rng.uniform(b + 1.05, 4.0)
        cases.append((Params(a, b), rng.randrange(10**6)))
    verify.cone_sweep(cases, samples=60)


def test_cone_degenerate_skips_stable_side():
    assert cone_check(Params(2.0, 0.0), samples=50, seed=3)


def test_trapping_lines_structure():
    lines = trapping_lines(P18)
    mult = multipliers(P18)
    assert lines.u_inf == pytest.approx(mult.lam - 1.0)
    # vertex on the unstable line, fold point on the axis
    assert lines.phi1_y(lines.u_inf) == pytest.approx(0.0)
    assert lines.phi2_y(lines.u_inf) == pytest.approx(0.0)
    # the triangle closes in the second quadrant
    assert mult.lam / P18.b - 1.0 > (mult.lam - 1.0) / (P18.a + mult.mu)


def test_classify_fixed_point_trapped_immediately():
    z_minus = fixed_points(P18)[0]
    result = classify_orbit(P18, z_minus)
    assert result.kind is OrbitKind.TRAPPED and result.witness == 0


def test_classify_escape_and_monotone_exit():
    result = classify_orbit(P18, (-10.0, -10.0))
    assert result.kind is OrbitKind.ESCAPES_MINUS_INFINITY
    v = (-10.0, -10.0)
    xs = [v[0]]
    for _ in range(20):
        v = apply_map(P18, v)
        xs.append(v[0])
    assert all(x1 < x0 for x0, x1 in zip(xs, xs[1:]))


def test_classify_periodic_points_trapped():
    verify.trapped_orbits((P18, Params(2.2, 0.3)))


def test_classify_budget_error_carries_point():
    with pytest.raises(BudgetError) as info:
        classify_orbit(P18, (-0.1, -5.0), max_iter=1)
    assert isinstance(info.value.last_point, tuple)


def test_classify_random_orbits_always_resolve():
    rng = random.Random(8)
    for _ in range(120):
        b = rng.uniform(0.001, 0.5)
        a = rng.uniform(3 * b + 1.001 + 1e-3, 4.0)
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        classify_orbit(Params(a, b), v, max_iter=100_000)


def test_classify_degenerate_map():
    p = Params(1.9, 0.0)
    assert classify_orbit(p, (-1.5, 0.0)).kind is OrbitKind.ESCAPES_MINUS_INFINITY
    assert classify_orbit(p, (0.3, 0.3)).kind is OrbitKind.TRAPPED
