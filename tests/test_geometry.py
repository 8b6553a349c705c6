import math
import random

import pytest

from lozilab import (
    MINUS,
    PLUS,
    BwdLine,
    FwdLine,
    Params,
    apply_branch,
    apply_branch_inverse,
    critical_data,
    fixed_points,
    iterate_line_bwd,
    iterate_line_fwd,
    multipliers,
    p_value,
    q_value,
    r_value,
    slope_bwd,
    slope_fwd,
    turning_point,
    u_value,
)
from lozilab.core import DomainError, RegionError
from lozilab.geometry import (
    SlopeError,
    boundary_turning_points,
    stable_line,
    u_gap,
)

from helpers import fold_oracle, genuine_iterate, stable_polyline_crossing, tent_orbit_crossing

P18 = Params(1.8, 0.2)

MOD_GRID = [
    Params(3.0 * b + 1.15 + (3.9 - 3.0 * b - 1.15) * i / 4, b)
    for b in (0.02, 0.1, 0.2, 0.3)
    for i in range(5)
]


# ---------------------------------------------------------------- slopes

def test_slope_fixed_points():
    mult = multipliers(P18)
    assert slope_fwd(P18, MINUS, 1 / mult.lam) == pytest.approx(1 / mult.lam)
    assert slope_fwd(P18, PLUS, -1 / mult.lam) == pytest.approx(-1 / mult.lam)
    assert slope_bwd(P18, MINUS, mult.mu) == pytest.approx(mult.mu)
    assert slope_fwd(P18, MINUS, 0.0) == pytest.approx(1 / 1.8)
    assert slope_bwd(P18, PLUS, 0.0) == pytest.approx(-1 / 9)
    assert slope_bwd(Params(2.0, 0.0), PLUS, 0.3) == 0.0


def test_excluded_slopes():
    with pytest.raises(SlopeError):
        slope_fwd(P18, PLUS, -P18.a / P18.b)
    with pytest.raises(SlopeError):
        slope_bwd(P18, MINUS, P18.a)


def test_unstable_cone_invariance_and_contraction():
    rng = random.Random(2)
    for p in MOD_GRID:
        mult = multipliers(p)
        inv = 1.0 / mult.lam
        for _ in range(40):
            s = rng.uniform(-inv, inv)
            for sigma in (MINUS, PLUS):
                image = slope_fwd(p, sigma, s)
                assert abs(image) <= inv * (1 + 1e-12)
                deriv = p.b / (p.b * s + sigma * p.a) ** 2
                assert 0.0 <= deriv <= p.b / mult.lam**2 * (1 + 1e-12)
            assert slope_fwd(p, MINUS, s) >= s - 1e-15
            assert slope_fwd(p, PLUS, s) <= s + 1e-15


def test_stable_cone_invariance_and_contraction():
    rng = random.Random(3)
    for p in MOD_GRID:
        mult = multipliers(p)
        for _ in range(40):
            s = rng.uniform(-mult.mu, mult.mu)
            for sigma in (MINUS, PLUS):
                image = slope_bwd(p, sigma, s)
                assert abs(image) <= mult.mu * (1 + 1e-12)
                deriv = p.b / (s + sigma * p.a) ** 2
                assert 0.0 <= deriv <= p.b / mult.lam**2 * (1 + 1e-12)
            assert slope_bwd(p, MINUS, s) >= s - 1e-15
            assert slope_bwd(p, PLUS, s) <= s + 1e-15


# ------------------------------------------------------- line iteration

def test_forward_iteration_of_horizontal_line():
    line = iterate_line_fwd(P18, (PLUS,), FwdLine(slope=0.0, anchor=(0.0, 1.0)))
    assert line.slope == pytest.approx(-1 / 1.8)
    # the image passes through the fold of {y=1}
    assert line.y_at(P18.a - 2 * P18.b - 1.0) == pytest.approx(0.0, abs=1e-12)
    # pushed points stay collinear
    for x in (-1.0, 0.7):
        image = apply_branch(P18, PLUS, (x, 1.0))
        assert abs(line.y_at(image[0]) - image[1]) < 1e-12


def test_forward_slope_invariant_direction():
    mult = multipliers(P18)
    line = FwdLine(slope=1 / mult.lam, anchor=(-1.0, -1.0))
    out = iterate_line_fwd(P18, (MINUS,) * 5, line)
    assert out.slope == pytest.approx(1 / mult.lam)


def test_forward_then_inverse_returns_line():
    line = FwdLine(slope=0.2, anchor=(0.3, -0.4))
    pushed = iterate_line_fwd(P18, (PLUS,), line)
    # pull two points of the image back through the branch inverse
    for x in (-0.5, 1.1):
        v = apply_branch_inverse(P18, PLUS, (x, pushed.y_at(x)))
        assert abs(line.y_at(v[0]) - v[1]) < 1e-11


def test_backward_iteration_of_critical_line():
    pulled = iterate_line_bwd(P18, (PLUS,), BwdLine(vslope=0.0, anchor=(0.0, 0.0)))
    assert pulled.vslope == pytest.approx(-P18.b / P18.a)
    for y_star in (-0.7, 0.4):
        v = apply_branch_inverse(P18, PLUS, (0.0, y_star))
        assert abs(pulled.x_at(v[1]) - v[0]) < 1e-12


def test_backward_stable_direction_invariant():
    mult = multipliers(P18)
    line = stable_line(P18, MINUS)
    pulled = iterate_line_bwd(P18, (MINUS,) * 4, line)
    assert pulled.vslope == pytest.approx(mult.mu)
    assert pulled.trace == pytest.approx(line.trace, abs=1e-12)


def test_backward_iteration_word_order():
    # pulling through (+, -) must invert map_- o map_+
    word = (PLUS, MINUS)
    start = BwdLine(vslope=0.01, anchor=(0.3, 0.0))
    pulled = iterate_line_bwd(P18, word, start)
    for y in (-0.5, 0.8):
        v = (pulled.x_at(y), y)
        w = apply_branch(P18, PLUS, v)
        w = apply_branch(P18, MINUS, w)
        assert abs(start.x_at(w[1]) - w[0]) < 1e-10


# ------------------------------------------------------- turning points

def test_turning_point_band_boundaries():
    for p in (P18, Params(2.3, 0.4), Params(1.9, 0.0)):
        u_left, u_right = boundary_turning_points(p)
        assert turning_point(p, FwdLine(slope=0.0, anchor=(0.0, 1.0))) == pytest.approx(u_left)
        assert turning_point(p, FwdLine(slope=0.0, anchor=(0.0, -1.0))) == pytest.approx(u_right)


def test_turning_point_by_folding_sample_points():
    # the two branch images of points just left/right of the switching
    # line straddle the fold at height ~0
    p = Params(2.1, 0.3)
    line = FwdLine(slope=-0.1, anchor=(0.5, -0.2))
    fold = turning_point(p, line)
    eps = 1e-6
    for x in (-eps, eps):
        v = (x, line.y_at(x))
        image = apply_branch(p, PLUS if x >= 0 else MINUS, v)
        assert abs(image[0] - fold) < 1e-5 and abs(image[1]) < 1e-5


def test_turning_point_degenerate_family():
    p = Params(1.7, 0.0)
    for k in (-2.0, 0.0, 1.5):
        line = FwdLine(slope=0.3, anchor=(0.0, k))
        assert turning_point(p, line) == pytest.approx(p.a - 1.0)


def test_turning_point_stable_manifold_parameterization():
    # anchor the line at its crossing with a stable-manifold carrier and
    # reproduce the fold from that data
    rng = random.Random(9)
    for p in (P18, Params(2.2, 0.35)):
        mult = multipliers(p)
        for sigma in (MINUS, PLUS):
            zeta = fixed_points(p)[1][0] if sigma == PLUS else -1.0
            for _ in range(20):
                s = rng.uniform(-1 / mult.lam, 1 / mult.lam)
                line = FwdLine(slope=s, anchor=(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                # intersection with {x = -sigma*mu*v + zeta, y = v + zeta}
                denom = 1.0 + sigma * mult.mu * s
                x0, y0 = line.anchor
                v = (y0 + s * (-sigma * mult.mu * 0 + zeta - x0) - zeta) / denom
                predicted = (
                    (p.a - p.b - 1.0)
                    - (1.0 + sigma * s * mult.mu) * p.b * v
                    - (1.0 - s) * p.b * zeta
                )
                assert turning_point(p, line) == pytest.approx(predicted, abs=1e-10)


# ------------------------------------------------------------- r ladder

def test_r_closed_forms_degenerate():
    p = Params(2.0, 0.0)
    assert r_value(p, 2) == pytest.approx(2 / 3, abs=1e-14)
    assert r_value(p, math.inf) == pytest.approx(1.0, abs=1e-14)
    for a in (1.5, 1.8, 1.95):
        pa = Params(a, 0.0)
        for m in range(1, 9):
            want = 1.0 - 2.0 / (a ** (m - 1) * (a + 1.0))
            assert r_value(pa, m) == pytest.approx(want, abs=1e-12)


def test_r_first_trace_formula():
    for p in MOD_GRID:
        mult = multipliers(p)
        zeta = fixed_points(p)[1][0]
        assert r_value(p, 1) == pytest.approx((1.0 + mult.mu) * zeta, abs=1e-12)


def test_r_monotone_bracket():
    r2 = r_value(P18, 2)
    r3 = r_value(P18, 3)
    assert r2 < r3 < r_value(P18, math.inf)


def test_r_against_stable_polyline_growth():
    for p, m in [(P18, 2), (P18, 3), (Params(1.6, 0.1), 3)]:
        want = r_value(p, m)
        got = stable_polyline_crossing(p, m, near=want)
        assert got == pytest.approx(want, abs=1e-9)


def test_r_rejects_outside_mod_region():
    with pytest.raises(RegionError):
        r_value(Params(1.5, 0.2), 2)
    with pytest.raises(DomainError):
        r_value(P18, 5.7)


def test_trace_limit_flat_in_a_at_degenerate_family():
    h = 1e-6
    for a in (1.6, 1.9):
        da = (r_value(Params(a + h, 0.0), math.inf) - r_value(Params(a - h, 0.0), math.inf)) / (2 * h)
        assert da == pytest.approx(0.0, abs=1e-12)


def test_first_trace_meets_fold_at_degenerate_onset():
    # u - r_1 = (a-1)*a/(a+1) at b = 0 vanishes linearly as a drops to 1
    for eps in (1e-3, 1e-5):
        p = Params(1.0 + eps, 0.0)
        gap = (p.a - 1.0) - r_value(p, 1)
        assert eps / 3.0 < gap < eps


# ------------------------------------------------------------- u ladder

def test_u_degenerate_and_limit():
    for m in (2, 3, 5):
        for side in "LR":
            assert u_value(Params(1.7, 0.0), m, side) == pytest.approx(0.7)
    assert u_value(Params(2.0, 0.0), math.inf, "L") == pytest.approx(1.0)


def test_u_sides_ordered_and_match_fold_oracle():
    for m in (2, 3, 4):
        left = u_value(P18, m, "L")
        right = u_value(P18, m, "R")
        assert left <= right
        for side, y0 in (("L", -1.0), ("R", 1.0)):
            got = fold_oracle(P18, (PLUS,) + (MINUS,) * (m - 2), y0, 0.0, 2.0)
            assert got is not None
            assert got[1] == pytest.approx(u_value(P18, m, side), abs=1e-10)


def test_u_rejects_bad_side():
    with pytest.raises(DomainError):
        u_value(P18, 3, "M")
    with pytest.raises(DomainError):
        u_value(P18, 3.5, "L")


# ------------------------------------------------------------ p and q

def test_p_degenerate_is_critical_value():
    for a in (1.6, 1.9):
        p = Params(a, 0.0)
        for m, n in [(3, 2), (5, 2), (4, 3)]:
            assert p_value(p, m, n) == pytest.approx(a - 1.0, abs=1e-12)


def test_p_limit_derivatives_degenerate():
    h = 1e-6
    for a in (1.7, 1.9):
        da = (
            p_value(Params(a + h, 0.0), math.inf, 2)
            - p_value(Params(a - h, 0.0), math.inf, 2)
        ) / (2 * h)
        assert da == pytest.approx(1.0, abs=1e-6)
        for n, want in ((2, 1.0 / a - 2.0), (3, -1.0 / a)):
            db = (
                -3.0 * p_value(Params(a, 0.0), math.inf, n)
                + 4.0 * p_value(Params(a, h), math.inf, n)
                - p_value(Params(a, 2 * h), math.inf, n)
            ) / (2 * h)
            assert db == pytest.approx(want, abs=1e-5)


def test_p_in_band_and_matches_fold_oracle():
    u_left, u_right = boundary_turning_points(P18)
    value = p_value(P18, 5, 2)
    assert u_left < value < u_right
    got = fold_oracle(P18, (1, -1, -1, -1, 1, 1), 0.0, 0.0, 1.5)
    assert got is not None
    assert got[1] == pytest.approx(value, abs=1e-10)


def test_q_degenerate_tent_oracle():
    p = Params(1.92, 0.0)
    for m, n in [(5, 2), (4, 3)]:
        word = (1,) + (-1,) * (m - 2) + (1, 1) + (-1,) * (n - 2)
        got = tent_orbit_crossing(p, word)
        assert got is not None
        assert q_value(p, m, n) == pytest.approx(got, abs=1e-10)


def test_q_genuine_orbit_identity():
    # the q point's genuine orbit hits the switching line at step m+n-1
    # and lands on (p, 0) one step later
    for p, m, n in [(P18, 5, 2), (P18, 4, 3), (Params(1.9, 0.1), 6, 2)]:
        q = q_value(p, m, n)
        v = genuine_iterate(p, (q, 0.0), m + n - 1)
        assert abs(v[0]) < 1e-10
        v = genuine_iterate(p, (q, 0.0), m + n)
        assert v[0] == pytest.approx(p_value(p, m, n), abs=1e-10)
        assert abs(v[1]) < 1e-10


def test_pq_genuine_orbit_identity_sweep():
    # seeded sweep of the strongest cross-module identity: the pullback
    # trace's genuine orbit reaches the switching line at step m+n-1 and
    # the fold point at step m+n, wherever the depth-two strips exist
    rng = random.Random(31)
    from lozilab import exists_Cmn

    checked = 0
    while checked < 40:
        b = rng.uniform(0.0, 0.25)
        a = rng.uniform(3 * b + 1.2, 3.6)
        m = rng.randrange(3, 9)
        n = rng.randrange(2, m)
        p = Params(a, b)
        if not exists_Cmn(p, m, n):
            continue
        # forward iteration amplifies the float error of q by lam^(m+n)
        tol = max(1e-10, 100.0 * multipliers(p).lam ** (m + n) * 2.2e-16)
        q = q_value(p, m, n)
        v = genuine_iterate(p, (q, 0.0), m + n - 1)
        assert abs(v[0]) < tol
        v = genuine_iterate(p, (q, 0.0), m + n)
        assert v[0] == pytest.approx(p_value(p, m, n), abs=tol)
        checked += 1


def test_q_converges_to_trace_limit():
    r_inf = r_value(P18, math.inf)
    gaps = [abs(q_value(P18, m, 2) - r_inf) for m in (6, 10, 14, 18)]
    assert all(g1 < g0 for g0, g1 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_q_strip_membership():
    assert r_value(P18, 4) < q_value(P18, 5, 2) < r_value(P18, 5)


# --------------------------------------------- ladders and closed forms

def test_critical_data_ladder():
    for p in MOD_GRID:
        data = critical_data(p, 7)
        rs = [data.r[m] for m in sorted(data.r)] + [data.r_inf]
        assert all(x < y for x, y in zip(rs, rs[1:]))
        for m in range(2, 7):
            assert data.u_left <= data.u_l[m] + 1e-12
            assert data.u_l[m] <= data.u_r[m] + 1e-12
            assert data.u_r[m] <= data.u_l[m + 1] + 1e-12
            assert data.u_l[m + 1] <= data.u_inf + 1e-12
        assert data.u_inf <= data.u_right + 1e-12


def test_manifold_segment_endpoints_closed_forms():
    for p in MOD_GRID:
        mult = multipliers(p)
        lam = mult.lam
        beta_inf = stable_line(p, MINUS)
        gamma_inf = iterate_line_bwd(p, (PLUS,), beta_inf)
        assert beta_inf.x_at(1.0) == pytest.approx(-1.0 + 2 * p.b / lam, abs=1e-12)
        assert gamma_inf.x_at(1.0) == pytest.approx(
            1.0 - (2 * lam + 2) * p.b / (p.a * lam + p.b), abs=1e-12
        )
        assert gamma_inf.x_at(-1.0) == pytest.approx(
            1.0 - 2 * p.b / (p.a * lam + p.b), abs=1e-12
        )


def test_full_horseshoe_parameters():
    for p in [Params(2.6, 0.3), Params(3.4, 0.5), Params(2.2, 0.1)]:
        if p.a >= 2 * p.b + 2:
            assert r_value(p, math.inf) <= boundary_turning_points(p)[0] + 1e-12
    p0 = Params(2.0, 0.0)
    assert r_value(p0, math.inf) == pytest.approx(boundary_turning_points(p0)[0])


def test_period_doubling_parameters():
    for p in [Params(1.25, 0.03), Params(1.3, 0.02), Params(1.35, 0.01)]:
        assert p.in_mod and p.a < math.sqrt(2.0) * (1 - 3 * p.b)
        assert multipliers(p).lam - 1.0 < r_value(p, 2)


def test_exponential_r_bounds():
    for p in MOD_GRID:
        lam = multipliers(p).lam
        r_inf = r_value(p, math.inf)
        for m in range(2, 13):
            gap = r_inf - r_value(p, m)
            assert 0.2 * lam**-m < gap < 2.25 * lam**-m


def test_u_gap_matches_direct_difference():
    for p in (P18, Params(2.5, 0.3), Params(1.9, 0.1)):
        u_inf = multipliers(p).lam - 1.0
        for m in range(2, 7):
            for side in "LR":
                direct = u_inf - u_value(p, m, side)
                assert u_gap(p, m, side) == pytest.approx(direct, abs=1e-13)


def test_exponential_u_bounds():
    # the gap itself drops below float resolution of the fold values for
    # small b, hence the cancellation-free evaluation
    slope_c = (64.0 / 7.0) * math.log(2.0)
    for p in MOD_GRID:
        lam = multipliers(p).lam
        for m in range(2, 13):
            low = 0.25 * (1 - lam ** (1 - m)) * (p.b / lam) ** (m - 2) * p.b
            high = (
                2.0
                * (1 - lam ** (1 - m) + (slope_c + 1.5) * p.b / lam**2)
                * (p.b / lam) ** (m - 2)
                * p.b
            )
            for side in "LR":
                gap = u_gap(p, m, side)
                assert low * (1 - 1e-9) <= gap <= high * (1 + 1e-9)


# ---------------------------------- manifold-intersection transfer identities

def test_stable_intersection_transfer_formula():
    # crossing data on one fixed point's stable carrier determines the
    # crossing on the other's
    rng = random.Random(21)
    for p in (P18, Params(2.3, 0.35)):
        mult = multipliers(p)
        zp = fixed_points(p)[1][0]
        zeta = {PLUS: zp, MINUS: -1.0}
        for _ in range(20):
            sigma = rng.choice((MINUS, PLUS))
            s = rng.uniform(-1 / mult.lam, 1 / mult.lam)
            line = FwdLine(slope=s, anchor=(rng.uniform(-1, 1), rng.uniform(-1, 1)))

            def crossing_parameter(tau):
                # solve line == {(-tau*mu*v + zeta_tau, v + zeta_tau)} for v
                x0, y0 = line.anchor
                return (y0 + s * (zeta[tau] - x0) - zeta[tau]) / (1.0 + tau * mult.mu * s)

            v = crossing_parameter(-sigma)
            w = crossing_parameter(sigma)
            predicted = (
                (1.0 - sigma * mult.mu * s) * v - sigma * (1.0 - s) * (zeta[PLUS] + 1.0)
            ) / (1.0 + sigma * mult.mu * s)
            assert w == pytest.approx(predicted, abs=1e-10)


def test_unstable_intersection_transfer_formula():
    rng = random.Random(22)
    for p in (P18, Params(2.3, 0.35)):
        mult = multipliers(p)
        zp = fixed_points(p)[1][0]
        zeta = {PLUS: zp, MINUS: -1.0}
        for _ in range(20):
            sigma = rng.choice((MINUS, PLUS))
            s = rng.uniform(-mult.mu, mult.mu)
            line = BwdLine(vslope=s, anchor=(rng.uniform(-1, 1), rng.uniform(-1, 1)))

            def crossing_parameter(tau):
                # solve line == {(v + zeta_tau, -tau*v/lam + zeta_tau)} for v
                x0, y0 = line.anchor
                return (x0 + s * (zeta[tau] - y0) - zeta[tau]) / (1.0 + tau * s / mult.lam)

            v = crossing_parameter(-sigma)
            w = crossing_parameter(sigma)
            predicted = (
                (1.0 - sigma * s / mult.lam) * v - sigma * (1.0 - s) * (zeta[PLUS] + 1.0)
            ) / (1.0 + sigma * s / mult.lam)
            assert w == pytest.approx(predicted, abs=1e-10)


def test_pullback_trace_formula():
    # x-axis trace of the plus-branch preimage from unstable-crossing data
    rng = random.Random(23)
    for p in (P18, Params(2.1, 0.15)):
        mult = multipliers(p)
        lam = mult.lam
        for _ in range(20):
            s = rng.uniform(-mult.mu, mult.mu)
            line = BwdLine(vslope=s, anchor=(rng.uniform(-0.5, 1.0), 0.0))
            x0 = line.anchor[0]
            # crossing with {(v - 1, v/lam - 1)}
            v = (x0 + s * (-1.0 - 0.0) + 1.0) / (1.0 - s / lam)
            want = ((lam - s) * (1.0 - v / lam) - p.b / lam * (lam - 1.0)) / (p.a + s)
            got = iterate_line_bwd(p, (PLUS,), line).trace
            assert got == pytest.approx(want, abs=1e-11)


def test_stable_orbit_parameter_recursion():
    # points on a stable carrier advance by v |-> -sigma*mu*v in the
    # offset parameterization (x, y) = (v_m + zeta, v_{m-1} + zeta)
    for p in (P18, Params(2.4, 0.45)):
        mult = multipliers(p)
        zp = fixed_points(p)[1][0]
        for sigma, zeta in ((MINUS, -1.0), (PLUS, zp)):
            v_prev = 0.37
            v_cur = -sigma * mult.mu * v_prev
            point = (v_cur + zeta, v_prev + zeta)
            for _ in range(6):
                point = apply_branch(p, sigma, point)
                v_prev, v_cur = v_cur, -sigma * mult.mu * v_cur
                assert point[0] == pytest.approx(v_cur + zeta, abs=1e-12)
                assert point[1] == pytest.approx(v_prev + zeta, abs=1e-12)


def test_unstable_backward_orbit_recursion():
    for p in (P18, Params(2.4, 0.45)):
        mult = multipliers(p)
        zp = fixed_points(p)[1][0]
        for sigma, zeta in ((MINUS, -1.0), (PLUS, zp)):
            v1 = 0.52
            point = (v1 + zeta, -sigma * v1 / mult.lam + zeta)
            v = v1
            for _ in range(6):
                point = apply_branch_inverse(p, sigma, point)
                v = -sigma * v / mult.lam
                assert point[0] == pytest.approx(v + zeta, abs=1e-10)
