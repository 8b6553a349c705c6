import random

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
from lozilab import oracle
from lozilab.core import DomainError, RegionError
from lozilab.oracle import BudgetError, trapping_lines

from helpers import all_words, close

P18 = Params(1.8, 0.2)


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


def test_brute_equivalence_with_admissible_formal():
    for p in (P18, Params(2.4, 0.4), Params(1.9, 0.0)):
        for period in (1, 2, 3, 4):
            genuine = brute_periodic(p, period, grid_n=20)
            formal = [
                formal_periodic_point(p, word)
                for word in all_words(period)
            ]
            admissible = [fp.point for fp in formal if fp.admissibility >= 0.0]
            for q in admissible:
                assert any(close(q, g, 1e-7) for g in genuine)
            for g in genuine:
                fp = formal_periodic_point(p, orbit_signs(p, g, period))
                assert close(fp.point, g, 1e-7)


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
    for _ in range(60):
        b = rng.uniform(0.0, 1.0)
        a = rng.uniform(b + 1.05, 4.0)
        assert cone_check(Params(a, b), samples=60, seed=rng.randrange(10**6))


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
    for p in (P18, Params(2.2, 0.3)):
        for v in brute_periodic(p, 3, grid_n=15):
            assert classify_orbit(p, v).kind is OrbitKind.TRAPPED


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
