import math
import random

import pytest

from lozilab import (
    MINUS,
    PLUS,
    NonInvertibleError,
    Params,
    RegionError,
    SpectrumError,
    apply_branch,
    apply_branch_inverse,
    apply_inverse,
    apply_map,
    fixed_points,
    multipliers,
)

from helpers import close


def p_full_grid():
    return [
        Params(a, b)
        for a in (1.7, 2.0, 2.4, 2.9, 3.5)
        for b in (0.0, 0.15, 0.35, 0.6)
    ]


def p_mod_grid():
    return [
        Params(3.0 * b + 1.1 + (4.0 - 3.0 * b - 1.2) * i / 5, b)
        for b in (0.0, 0.1, 0.25, 0.5, 0.8, 1.0)
        for i in range(6)
    ]


def test_map_on_critical_locus():
    assert apply_map(Params(1.8, 0.2), (0.0, 0.0)) == (pytest.approx(0.6), 0.0)


def test_branch_substitution():
    p = Params(1.8, 0.2)
    assert close(apply_branch(p, PLUS, (1.0, 0.0)), (-1.2, 1.0), 1e-15)
    assert close(apply_branch(p, MINUS, (1.0, 0.0)), (2.4, 1.0), 1e-15)


def test_branches_agree_on_critical_locus():
    p = Params(2.3, 0.4)
    for k in (-1.0, 0.3, 2.0):
        want = (p.a - p.b - 1.0 - p.b * k, 0.0)
        assert apply_branch(p, PLUS, (0.0, k)) == want
        assert apply_branch(p, MINUS, (0.0, k)) == want


def test_branch_matches_map_on_half_planes():
    rng = random.Random(7)
    for p in p_full_grid():
        for _ in range(25):
            x = rng.uniform(-3.0, 3.0)
            y = rng.uniform(-3.0, 3.0)
            sigma = PLUS if x >= 0.0 else MINUS
            assert close(apply_branch(p, sigma, (x, y)), apply_map(p, (x, y)), 1e-15)


def test_fixed_points_residuals():
    for p in p_full_grid():
        z_minus, z_plus = fixed_points(p)
        assert z_minus == (-1.0, -1.0)
        assert close(apply_map(p, z_minus), z_minus, 1e-12)
        assert close(apply_map(p, z_plus), z_plus, 1e-12)
    assert fixed_points(Params(2.0, 0.0))[1] == pytest.approx((1 / 3, 1 / 3))
    assert fixed_points(Params(1.8, 0.2))[1] == pytest.approx((0.2, 0.2))


def test_fixed_points_rejects_outside_full_region():
    with pytest.raises(RegionError):
        fixed_points(Params(1.1, 0.2))
    with pytest.raises(RegionError):
        fixed_points(Params(3.0, 1.5))


def test_multipliers_degenerate():
    mult = multipliers(Params(2.0, 0.0))
    assert mult.lam == 2.0 and mult.mu == 0.0


def test_multipliers_characteristic_residual():
    mult = multipliers(Params(1.8, 0.2))
    assert abs(mult.lam**2 - 1.8 * mult.lam + 0.2) < 1e-14
    for p in p_full_grid():
        mult = multipliers(p)
        assert abs(mult.lam**2 - p.a * mult.lam + p.b) < 1e-12
        assert abs(mult.lam * mult.mu - p.b) < 1e-14
        assert mult.lam > 1.0 and 0.0 <= mult.mu < 1.0


def test_multiplier_bounds_on_mod_region():
    for p in p_mod_grid():
        mult = multipliers(p)
        assert 2.0 * p.b + 1.0 < mult.lam <= p.a + 1e-15
        assert p.b / mult.lam**2 < 1.0 / 8.0
        assert p.b / mult.lam < 1.0 / 3.0


def test_multipliers_complex_spectrum():
    with pytest.raises(SpectrumError):
        multipliers(Params(1.0, 0.9))


def test_region_predicate_boundaries():
    assert not Params(1.6, 0.2).in_mod  # a = 3b + 1 is excluded
    assert Params(1.6 + 1e-9, 0.2).in_mod
    assert not Params(1.2, 0.2).in_full  # a = b + 1 is excluded
    assert Params(2.5, 1.0).in_full  # b = 1 is included
    assert not Params(2.5, 1.0 + 1e-12).in_full
    assert Params(1.8, 0.2).in_nbd(0.2) and not Params(1.8, 0.2).in_nbd(0.1)
    assert not Params(math.inf, 0.2).in_full  # a must be finite
    assert not Params(math.inf, 0.2).in_mod


def test_inverse_round_trip():
    p = Params(1.8, 0.2)
    rng = random.Random(3)
    for _ in range(50):
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert close(apply_inverse(p, apply_map(p, v)), v, 1e-12)
        for sigma in (MINUS, PLUS):
            w = apply_branch(p, sigma, v)
            assert close(apply_branch_inverse(p, sigma, w), v, 1e-12)


def test_inverse_rejects_degenerate():
    with pytest.raises(NonInvertibleError):
        apply_inverse(Params(2.0, 0.0), (0.1, 0.1))
    with pytest.raises(NonInvertibleError):
        apply_branch_inverse(Params(2.0, 0.0), PLUS, (0.1, 0.1))


def test_multiplier_directions_are_eigenvectors():
    for p in p_full_grid():
        mult = multipliers(p)
        for sigma in (MINUS, PLUS):
            for rate in (mult.lam, mult.mu):
                vx, vy = -sigma * rate, 1.0
                wx = -sigma * p.a * vx - p.b * vy
                wy = vx
                eig = -sigma * rate
                assert math.isclose(wx, eig * vx, rel_tol=1e-12, abs_tol=1e-12)
                assert math.isclose(wy, eig * vy, rel_tol=1e-12, abs_tol=1e-12)
