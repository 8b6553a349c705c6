import dataclasses
import math
import random
import re
import warnings

import pytest

from lozilab import (
    Params,
    find_reversal,
    formal_periodic_point,
    iota,
    multipliers,
    p_value,
    q_value,
    r_value,
    solve_l,
    tangency_a,
    trace_curve,
    u_value,
)
from lozilab import bifurcation, solvers
from lozilab.bifurcation import (
    C3,
    C4,
    ConditionError,
    ReversalError,
    _solve_near,
    choose_m,
    crossing_gaps,
    refine_crossing,
)
from lozilab.core import DomainError, RegionError
from lozilab.geometry import C_RL, C_RU
from lozilab.solvers import (
    _FD_STEP,
    _HUNT_CELLS,
    BracketError,
    ConvergenceError,
    MultipleRootWarning,
    _tree_cell,
    bisect,
    hybrid_root,
    newton_polish,
    predicted_cell,
    scan_brackets,
)

from helpers import genuine_iterate, reference_cold_root, tent_orbit_crossing


# ------------------------------------------------------------- tangency

def test_tangency_degenerate_is_two():
    assert tangency_a(0.0) == pytest.approx(2.0, abs=1e-12)


def test_tangency_derivative_at_degenerate_point():
    h = 1e-6
    def gap(a, b):
        p = Params(a, b)
        mult = multipliers(p)
        return (mult.lam - 1.0) - (1.0 - (mult.lam + 2.0) / (p.a * mult.lam + p.b) * p.b)
    da = (gap(2.0 + h, 0.0) - gap(2.0 - h, 0.0)) / (2 * h)
    assert da == pytest.approx(1.0, abs=1e-6)


def test_tangency_small_b_window():
    for b in (0.02, 0.05):
        a = tangency_a(b)
        assert 1.8 < a < 2.2
        p = Params(a, b)
        mult = multipliers(p)
        r_inf = 1.0 - (mult.lam + 2.0) / (p.a * mult.lam + p.b) * p.b
        assert mult.lam - 1.0 == pytest.approx(r_inf, abs=1e-12)


def test_tangency_curve_sampling():
    avals = [tangency_a(b) for b in (0.0, 0.01, 0.02, 0.03)]
    assert avals[0] == pytest.approx(2.0, abs=1e-12)
    assert all(1.8 < a < 2.2 for a in avals)


def test_tangency_last_b_inside_the_partition_region():
    assert tangency_a(0.287) == 1.8612693327523417


@pytest.mark.parametrize("b", [0.2871, 0.3, 0.5, 0.7, 1.0])
def test_tangency_outside_the_partition_region_is_a_region_error(b):
    # t(b) <= 3b + 1 here; these were a bare BracketError ("no sign change
    # of f on [1.900000001, 3.0]" at 0.3) and, from b = 2/3 on, hybrid_root's
    # "need an interval lo < hi"
    with pytest.raises(RegionError, match=re.escape(f"b = {b}: ") + r".*a > 3b \+ 1"):
        tangency_a(b)


@pytest.mark.parametrize("b", [math.nan, -0.1])
def test_tangency_refuses_b_not_at_least_zero(b):
    # both were RegionError("(1.4142135633730952, nan) is outside the
    # partition region a > 3b+1"), naming the scan's first a
    with pytest.raises(DomainError) as info:
        tangency_a(b)
    assert type(info.value) is DomainError
    assert str(info.value) == f"need b >= 0, got {b}"


def test_tangency_at_infinite_b_stays_a_region_error():
    with pytest.raises(RegionError) as info:
        tangency_a(math.inf)
    assert str(info.value) == "b = inf: the partition region a > 3b + 1 leaves no a < 3 for t(b)"


def test_tangency_scan_without_a_root_below_it_stays_a_bracket_error(monkeypatch):
    monkeypatch.setattr(bifurcation, "_tangency_gap", lambda a, b: -1.0)
    with pytest.raises(BracketError, match="no sign change"):
        tangency_a(0.1)


# ----------------------------------------------------------- root solves

def test_solve_l_matches_degenerate_critical_orbit_closure():
    # at b = 0 the root is where the orbit of the fold value closes up
    # through the return word; check with the genuine forward bisection
    for m, n in [(5, 2), (4, 3), (6, 2)]:
        a0 = solve_l(0.0, m, n)
        word = (1,) + (-1,) * (m - 2) + (1, 1) + (-1,) * (n - 2)
        p = Params(a0, 0.0)
        q_hat = tent_orbit_crossing(p, word)
        assert q_hat is not None
        # u = a - 1 equals the closing point
        assert a0 - 1.0 == pytest.approx(q_hat, abs=1e-9)


def test_solve_l_degenerate_ordering():
    for m in (5, 8, 12):
        assert solve_l(0.0, m, 2) < solve_l(0.0, m, 3)


def test_solve_l_residual_and_formal_touch():
    for m, n, b in [(5, 2, 0.0), (8, 3, 0.01), (12, 2, 0.03)]:
        a = solve_l(b, m, n)
        p = Params(a, b)
        assert abs(p_value(p, m, n) - q_value(p, m, n)) < 1e-11
        for sigma in (-1, +1):
            fp = formal_periodic_point(p, iota(sigma, m, n))
            v = genuine_iterate(p, fp.point, m + n - 1)
            assert abs(v[0]) < 1e-7


def test_solve_l_rejects_bad_orders():
    with pytest.raises(DomainError):
        solve_l(0.01, 2, 3)


def test_trace_curve_refuses_orders_before_solving():
    # a bad order is an input error, not a curve that failed at some b
    for m, n in ((8.5, 2), (True, 2), (5, 2.5), (3, 3)):
        with pytest.raises(DomainError, match="need integers m > n >= 2") as info:
            trace_curve(m, n, [0.0, 0.01])
        assert not isinstance(info.value, BracketError)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_trace_curve_refuses_a_tolerance_before_solving(tol, monkeypatch):
    # an unusable tol is an input error, not a curve that failed at b = 0.0
    monkeypatch.setattr(bifurcation, "_pq_gap", lambda *args: pytest.fail("a solve ran"))
    with pytest.raises(DomainError) as info:
        trace_curve(5, 2, [0.0, 0.01, 0.02], tol=tol)
    assert type(info.value) is DomainError
    assert str(info.value) == f"need finite tolerances >= 0, got xtol=1e-06, ftol={tol!r}"


def test_solve_l_no_bracket_error():
    # n >= m is rejected, and a huge b has no admissible window
    with pytest.raises((BracketError, DomainError)):
        solve_l(0.9, 5, 2)


def test_trace_curve_slopes_and_bounds():
    grid = [0.002 * i for i in range(11)]
    curve2 = trace_curve(5, 2, grid)
    curve3 = trace_curve(5, 3, grid)
    assert all(math.sqrt(2.0) < a < 4.0 for _, a in curve2.samples)
    for b, a in curve2.samples:
        p = Params(a, b)
        assert abs(p_value(p, 5, 2) - q_value(p, 5, 2)) < 1e-11
    # the second-fold family rises, the third-fold family falls
    assert all(s > 0.0 for s in curve2.dadb)
    assert all(s < 0.0 for s in curve3.dadb)


@pytest.mark.parametrize("call, refusal", [
    (lambda: trace_curve(8, 2, [0.01, 0.01]), "not strictly increasing"),
    (lambda: find_reversal(1e-4, grid_points=1), "need an integer 2 <= grid_points"),
    (lambda: find_reversal(1e-4, grid_points=2.5), "need an integer 2 <= grid_points"),
    (lambda: find_reversal(0.0, m=10), "0 < b_bar < 1"),
], ids=["repeated-b", "one-grid-point", "fractional-grid-points", "zero-cap-with-m"])
def test_degenerate_b_grid_is_refused(call, refusal):
    # each used to divide by a zero grid spacing
    with pytest.raises(DomainError, match=refusal):
        call()


def test_trace_curve_refuses_a_single_grid_point(monkeypatch):
    monkeypatch.setattr(bifurcation, "solve_l", lambda *args, **kwargs: pytest.fail("a solve ran"))
    with pytest.raises(DomainError, match="^need at least two grid points$"):
        trace_curve(5, 2, [0.01])


def _patched_solves(monkeypatch, values):
    """bifurcation.solve_l replaced by the sample values a[b]."""
    monkeypatch.setattr(bifurcation, "solve_l", lambda b, m, n, **kwargs: values[b])


def test_trace_curve_wraps_a_failed_solve_as_a_bracket_error(monkeypatch):
    def solve(b, m, n, **kwargs):
        if b == 0.02:
            raise ConvergenceError("|f| = 1.000e-09 above tolerance 1.000e-12")
        return 1.9

    monkeypatch.setattr(bifurcation, "solve_l", solve)
    with pytest.raises(BracketError) as info:
        trace_curve(5, 2, [0.0, 0.01, 0.02, 0.03])
    assert str(info.value) == (
        "curve (5,2) failed at b = 0.02: |f| = 1.000e-09 above tolerance 1.000e-12")
    assert isinstance(info.value.__cause__, ConvergenceError)


@pytest.mark.parametrize("a", [4.0, math.sqrt(2.0), math.nan])
def test_trace_curve_refuses_a_sample_outside_the_a_range(a, monkeypatch):
    _patched_solves(monkeypatch, {0.0: 1.9, 0.01: a, 0.02: 1.9})
    with pytest.raises(DomainError, match=re.escape(f"curve (5,2) left (sqrt(2), 4): a = {a}")):
        trace_curve(5, 2, [0.0, 0.01, 0.02])


def test_trace_curve_refuses_a_jump_between_samples(monkeypatch):
    # the rise 0.05 over (0.01, 0.02) exceeds 1.5 times the larger
    # centered slope there (2.5) times the spacing, 0.0375
    _patched_solves(monkeypatch, {0.0: 1.9, 0.01: 1.9, 0.02: 1.95, 0.03: 1.95})
    with pytest.raises(DomainError, match=re.escape("curve (5,2) jumps at b = 0.01")):
        trace_curve(5, 2, [0.0, 0.01, 0.02, 0.03])
    # samples on a line of slope 1 are kept
    _patched_solves(monkeypatch, {0.0: 1.9, 0.01: 1.91, 0.02: 1.92, 0.03: 1.93})
    assert trace_curve(5, 2, [0.0, 0.01, 0.02, 0.03]).dadb == pytest.approx([1.0] * 4)


def test_trace_curves_same_n_do_not_cross():
    grid = [0.004 * i for i in range(9)]
    a5 = trace_curve(5, 2, grid).samples
    a6 = trace_curve(6, 2, grid).samples
    assert all(x[1] < y[1] for x, y in zip(a5, a6))


def test_bifurcation_point_certificate():
    for m, n, b in [(5, 2, 0.01), (8, 3, 0.01)]:
        a = solve_l(b, m, n)
        p = Params(a, b)
        fp_minus = formal_periodic_point(p, iota(-1, m, n))
        fp_plus = formal_periodic_point(p, iota(+1, m, n))
        assert abs(fp_minus.point[0] - fp_plus.point[0]) < 1e-8
        assert abs(fp_minus.point[1] - fp_plus.point[1]) < 1e-8
        assert abs(fp_minus.admissibility) < 1e-8
        assert abs(fp_plus.admissibility) < 1e-8
        # hyperbolic just above, non-admissible just below
        above = Params(a + 1e-3, b)
        below = Params(a - 1e-3, b)
        assert all(
            formal_periodic_point(above, iota(s, m, n)).hyperbolic for s in (-1, +1)
        )
        assert any(
            formal_periodic_point(below, iota(s, m, n)).admissibility < 0.0
            for s in (-1, +1)
        )


# ------------------------------------------------------------- choose_m

def test_choose_m_rejects_large_b():
    with pytest.raises(ConditionError):
        choose_m(0.02)


def test_choose_m_condition_gap_reported():
    try:
        choose_m(3e-4)
    except ConditionError as exc:
        assert "gap" in str(exc)
    else:
        pytest.fail("expected ConditionError")
    # below the window where the gap fails, the condition holds
    assert choose_m(1e-4) == 15


# the numerator is still positive on about (1.45e-4, 5.887e-4), so t(b_bar)
# is solved there and the gap is what fails
@pytest.mark.parametrize("b_bar, gap", [(2e-4, -0.442), (3e-4, -1.027), (5e-4, -1.764)])
def test_choose_m_condition_message_where_the_tangency_is_solved(b_bar, gap):
    for search in (choose_m, find_reversal):
        with pytest.raises(ConditionError) as info:
            search(b_bar)
        assert str(info.value) == f"b_bar = {b_bar} too large: log-scale separation gap {gap} <= 0"


@pytest.mark.parametrize("b_bar", [0.01, 0.02, 0.1, 0.287, 0.3, 0.5, 0.9])
def test_large_b_bar_fails_the_condition_before_the_tangency(b_bar, monkeypatch):
    # the numerator is <= 0 above b_bar ~ 5.887e-4, so t(b_bar) is not
    # solved; from 0.2871 it lies below the tangency scan, where 0.3, 0.5
    # and 0.9 were a bare BracketError (0.3, 0.5) and a RegionError (0.9)
    def unsolved(b):
        raise AssertionError(f"t({b}) was solved")

    monkeypatch.setattr(bifurcation, "tangency_a", unsolved)
    sep = math.log(1.0 / b_bar) + math.log(C3 / C4) - math.log(C_RU / C_RL)
    match = re.escape(f"b_bar = {b_bar} too large: log-scale separation numerator {sep:.3f} <= 0")
    for search in (choose_m, find_reversal):
        with pytest.raises(ConditionError, match=match):
            search(b_bar)


def test_choose_m_reports_float_resolution():
    # at this b_bar the third fold rounds onto the trace limit r_inf
    with pytest.raises(DomainError, match=r"\(m = 28\).*float resolution"):
        choose_m(1.107491395289921e-08)


@pytest.mark.parametrize("b_bar, m", [(2e-16, 54), (7e-16, 52)])
def test_choose_m_reports_a_third_fold_at_float_resolution(b_bar, m):
    # u_3^L lies 1-3 ulp below r_inf and rounds onto the wrong side of
    # trace m: a precision failure, not a failed separation condition
    p = Params(tangency_a(b_bar), b_bar)
    r_inf, u_third = r_value(p, math.inf), u_value(p, 3, "L")
    assert 0.0 < r_inf - u_third <= 4.0 * math.ulp(r_inf)
    with pytest.raises(DomainError) as info:
        choose_m(b_bar)
    assert type(info.value) is DomainError
    assert str(info.value) == (f"fold u_3^L (m = {m}) = {u_third!r} is within float "
                               f"resolution of r_inf = {r_inf!r} at b_bar = {b_bar}")


@pytest.mark.parametrize("b_bar", [0.0, -1e-5, 1.0, math.nan])
def test_choose_m_refuses_b_bar_outside_the_unit_interval(b_bar, monkeypatch):
    # find_reversal refuses these first; choose_m does on its own too
    monkeypatch.setattr(bifurcation, "tangency_a", lambda b: pytest.fail("t(b) was solved"))
    with pytest.raises(DomainError, match=re.escape(f"need 0 < b_bar < 1, got {b_bar}")):
        choose_m(b_bar)


def test_choose_m_refuses_when_no_trace_passes_the_fold(monkeypatch):
    # every trace of the ladder read at the fold's own value: none lies
    # beyond it on the log scale
    def ladder(p, m_max):
        fold = u_value(p, 2, "R")
        return ((0.0, fold, 0.0, fold) for _ in range(m_max))

    monkeypatch.setattr(bifurcation, "_r_ladder", ladder)
    with pytest.raises(DomainError, match="^fold sandwich not found below index 400$"):
        choose_m(1e-4)


def test_choose_m_refuses_a_third_fold_short_of_the_next_trace(monkeypatch):
    # u_3^L read as u_2^R: the third fold lies below trace m
    fold = bifurcation.u_value
    monkeypatch.setattr(bifurcation, "u_value",
                        lambda p, n, side: fold(p, 2, "R") if n == 3 else fold(p, n, side))
    with pytest.raises(ConditionError, match=re.escape(
            "third fold not beyond trace 15 at b_bar = 0.0001")):
        choose_m(1e-4)


def test_choose_m_refuses_a_third_fold_level_with_the_next_trace(monkeypatch):
    # the fold reads 10.5, trace r_j reads j, so m = 12, and the third fold
    # reads 12.0, level with trace 12: not beyond it
    def coord(p, x, name):
        if name.startswith("trace r_"):
            return float(name[len("trace r_"):])
        return {"fold u_2^R": 10.5, "fold u_3^L (m = 12)": 12.0}[name]

    monkeypatch.setattr(bifurcation, "_ladder_coord", coord)
    with pytest.raises(ConditionError, match=re.escape(
            "third fold not beyond trace 12 at b_bar = 1e-05")):
        choose_m(1e-5)


@pytest.mark.parametrize("b_bar", [5e-17, 1e-17, 1e-20])
def test_choose_m_refuses_a_trace_limit_rounded_onto_the_tent_map(b_bar, monkeypatch):
    # r_inf reads its b = 0 value 1.0 here; the refusal comes before any ladder
    monkeypatch.setattr(bifurcation, "_r_ladder", lambda p, m_max: pytest.fail("ladder read"))
    monkeypatch.setattr(bifurcation, "_ladder_coord", lambda p, x, name: pytest.fail(name))
    with pytest.raises(DomainError, match=re.escape(
            f"b_bar = {b_bar} is below float resolution: r_inf rounds to its b = 0 value 1.0")):
        choose_m(b_bar)


def test_choose_m_sandwich_and_monotonicity(reversal):
    b_bar, result = reversal
    m = choose_m(b_bar)
    assert m == result.m
    # the log-scale sandwich at the tangency parameter
    from lozilab import log_coord, u_value

    p = Params(tangency_a(b_bar), b_bar)
    t_fold = log_coord(p, u_value(p, 2, "R"))
    assert log_coord(p, r_value(p, m - 2)) <= t_fold < log_coord(p, r_value(p, m - 1))
    assert log_coord(p, u_value(p, 3, "L")) > log_coord(p, r_value(p, m))
    # smaller cap, same-or-deeper index
    assert choose_m(b_bar / 4) >= m


def test_choose_m_grows_like_log_of_inverse_cap(reversal):
    # quartering the cap sits near the tangency multiplier ~2, so the
    # chosen index should advance by about log2(4) = 2
    b_bar, _ = reversal
    m = choose_m(b_bar)
    for k in (1, 2):
        grown = choose_m(b_bar / 4**k)
        assert m + 2 * k - 1 <= grown <= m + 2 * k + 1


def _scanned_m(b_bar):
    """choose_m's index from one single-rung r_value call per trace, each
    word pulled from scratch; a refusal as its repr."""
    p = Params(tangency_a(b_bar), b_bar)
    try:
        t_fold = bifurcation._ladder_coord(p, u_value(p, 2, "R"), "fold u_2^R")
        j = 1
        while bifurcation._ladder_coord(p, r_value(p, j), f"trace r_{j}") <= t_fold:
            j += 1
        m = j + 1
        t_third = bifurcation._ladder_coord(p, u_value(p, 3, "L"), f"fold u_3^L (m = {m})")
        if t_third <= bifurcation._ladder_coord(p, r_value(p, m), f"trace r_{m}"):
            raise ConditionError(f"third fold not beyond trace {m} at b_bar = {b_bar}")
    except DomainError as exc:
        return repr(exc)
    return m


def test_choose_m_equals_a_scan_of_single_traces():
    # log-spaced b_bar from 1e-4 down to 1.3e-9: m from 15 to 31, and three
    # refusals at float resolution below 1e-8
    outcomes = []
    for k in range(50):
        b_bar = 10.0 ** (-4.0 - 0.1 * k)
        try:
            got = choose_m(b_bar)
        except DomainError as exc:
            got = repr(exc)
        assert got == _scanned_m(b_bar), b_bar
        outcomes.append(got)
    assert sum(isinstance(o, str) for o in outcomes) == 3
    assert {o for o in outcomes if isinstance(o, int)} == set(range(15, 32))


# ---------------------------------------------------------- reversal

def test_find_reversal_certificate(reversal):
    b_bar, result = reversal
    assert 0.0 < result.b_star < b_bar
    assert math.sqrt(2.0) < result.a_star < 4.0
    assert result.slope2 > result.slope3
    gap0 = result.curve2.samples[0][1] - result.curve3.samples[0][1]
    gap1 = result.curve2.samples[-1][1] - result.curve3.samples[-1][1]
    assert gap0 < 0.0 < gap1
    # crossing is a genuine root of the curve gap
    g = solve_l(result.b_star, result.m, 2) - solve_l(result.b_star, result.m, 3)
    assert abs(g) < 1e-7
    # slope ordering along the whole grid
    assert all(s2 > s3 for s2, s3 in zip(result.curve2.dadb, result.curve3.dadb))


def test_find_reversal_scales_to_smaller_caps():
    for b_bar, want_m in ((2e-5, 18), (2e-6, 21)):
        result = find_reversal(b_bar, grid_points=31)
        assert result.m == want_m
        assert 0.0 < result.b_star < b_bar
        # near the accumulation parameter the slope difference approaches
        # the degenerate-family transversality value 2 - 2/a
        diff = result.slope2 - result.slope3
        assert diff == pytest.approx(2.0 - 2.0 / result.a_star, rel=0.1)


def test_find_reversal_supplied_m_in_figure_band():
    # the m = 5 crossing sits near b = 0.01, inside [0, 0.05]
    result = find_reversal(0.05, m=5, grid_points=11)
    assert 0.005 < result.b_star < 0.02
    assert result.slope2 > 0.0 > result.slope3


def test_find_reversal_rejects_band_before_crossing():
    # with the cap below the m = 5 crossing the endpoint order is not
    # yet reversed
    with pytest.raises(ReversalError):
        find_reversal(0.005, m=5, grid_points=9)


# crossing_gaps' (gaps, flips) -> the refusal find_reversal must make
@pytest.mark.parametrize("gaps, flips, message", [
    ([0.0, 1.0, 2.0], [], "order not l2 < l3 at b = 0 (gap 0.000e+00)"),
    ([-2.0, -1.0, 0.0], [], "order not l2 > l3 at b_bar (gap 0.000e+00)"),
    ([-1.0, 1.0, -1.0, 1.0], [0, 1, 2], "3 sign changes of l2 - l3 on the grid"),
], ids=["order-at-0", "order-at-b_bar", "sign-changes"])
def test_find_reversal_refuses_the_gaps_of_no_single_crossing(gaps, flips, message, monkeypatch):
    monkeypatch.setattr(bifurcation, "crossing_gaps", lambda curve2, curve3: (gaps, flips))
    with pytest.raises(ReversalError, match=re.escape(message)):
        find_reversal(0.05, m=5, grid_points=3)


def test_find_reversal_refuses_slopes_out_of_order(monkeypatch):
    # the m = 5 curves on [0, 0.05] cross once; with every slope estimate
    # 0.0, d l_{m,2}/db > d l_{m,3}/db fails at the first sample
    trace = bifurcation.trace_curve
    monkeypatch.setattr(bifurcation, "trace_curve", lambda m, n, bs: dataclasses.replace(
        trace(m, n, bs), dadb=[0.0] * len(bs)))
    with pytest.raises(ReversalError, match=re.escape("slope order fails at b = 0.0")):
        find_reversal(0.05, m=5, grid_points=11)


def test_find_reversal_refuses_a_crossing_that_is_not_transverse(monkeypatch):
    # once the crossing is refined, both curves read flat near b*, so
    # their central differences tie
    refined = []
    refine, solve_near = bifurcation.refine_crossing, bifurcation._solve_near
    monkeypatch.setattr(bifurcation, "refine_crossing",
                        lambda *args: refined.append(refine(*args)) or refined[-1])
    monkeypatch.setattr(bifurcation, "_solve_near",
                        lambda curve, b, tol: 2.0 if refined else solve_near(curve, b, tol))
    with pytest.raises(ReversalError, match=re.escape("crossing not transverse: 0.0 <= 0.0")):
        find_reversal(0.05, m=5, grid_points=11)
    assert len(refined) == 1


def test_hybrid_root_warning_on_multiple_roots():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        root = hybrid_root(lambda x: (x - 1.0) * (x - 2.0) * (x - 3.0), 0.0, 3.5,
                           scan_n=40, xtol=1e-8, ftol=1e-10)
        assert any(issubclass(w.category, MultipleRootWarning) for w in caught)
    assert root == pytest.approx(3.0, abs=1e-8)


def scan_tree_cell(x, xtol, lo=0.0, hi=3.5, n=40):
    """The final cell that a warm hunt of hybrid_root(f, lo, hi, scan_n=n,
    xtol=xtol) checks for x: bisection's cell around x inside the cell of
    the n-cell scan that holds x."""
    i = min(int((x - lo) / (hi - lo) * n), n - 1)
    return _tree_cell(lo + (hi - lo) * i / n, lo + (hi - lo) * (i + 1) / n, xtol, x)


def test_warm_start_falls_back_to_the_cold_solve():
    def root(f, guess=None):
        seen = []

        def counted(x):
            seen.append(x)
            return f(x)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = hybrid_root(counted, 0.0, 3.5, scan_n=40, xtol=1e-8, ftol=1e-10,
                            guess=guess)
        return x, len(seen), [w.category for w in caught]

    line = lambda x: math.exp(x) - 2.0  # noqa: E731
    cold, cold_evals, _ = root(line)
    # 41 scan nodes, the hunt from the line through the scan cell's ends
    # (3 midpoints, the last the final cell's, and that cell's end),
    # Newton's 2 slope points and 1 iterate; 69 while the scan cell was
    # bisected to xtol (24 midpoints, then the 4 Newton values)
    assert cold_evals == 48
    c0, c1 = scan_tree_cell(cold, 1e-8)
    # a guess in the root's scan cell (0.6125, 0.7) is hunted there by
    # secant steps: _HUNT_CELLS cells off it costs 8 values (2 midpoints,
    # the scan cell's end, then the root's cell as the cold path reads it),
    # where the hunt of one cell at a time gave up and scanned (56)
    assert root(line, 0.5 * (c0 + c1) + _HUNT_CELLS * (c1 - c0)) == (cold, 8, [])
    # a guess outside that scan cell: the first secant step leaves the
    # guess's own scan cell, and the scan runs; beyond the cold values only
    # the guess cell's midpoint was read, its partner being a scan node
    for guess in (0.7 + 0.01, 0.6125 - 0.01):
        assert root(line, guess) == (cold, cold_evals + 1, [])
    for guess in (-1.0, 0.0, 3.5, 7.0):
        assert root(line, guess) == (cold, cold_evals, [])
    # the cubic decreases through 2.0: every hunted cell fails its sign
    # check, and the scan still warns, bisects and returns the rightmost
    # root; 69 + 3 (two midpoints and one end), where the hunt of one cell
    # at a time read 69 + 2 * _HUNT_CELLS = 77
    cubic = lambda x: (x - 1.0) * (x - 2.0) * (x - 3.0)  # noqa: E731
    x, evals, categories = root(cubic, 2.0)
    cold, cold_evals, cold_categories = root(cubic)
    assert cold_evals == 69
    assert (x, evals, categories) == (cold, 72, cold_categories)
    assert x == pytest.approx(3.0, abs=1e-8)
    assert MultipleRootWarning in categories


@pytest.mark.parametrize("cells", [_HUNT_CELLS, 100, 10_000])
def test_warm_hunt_reaches_a_root_far_off_inside_its_scan_cell(cells, monkeypatch):
    # the hunt of one cell at a time gave up beyond _HUNT_CELLS - 1 cells
    # and scanned 41 nodes; the secant steps reach the root's cell from
    # anywhere in its scan cell, with no scan
    scans = []
    scan = solvers.scan_brackets
    monkeypatch.setattr(solvers, "scan_brackets", lambda *args: scans.append(args) or scan(*args))
    f = lambda x: math.exp(x) - 2.0  # noqa: E731
    c0, c1 = scan_tree_cell(math.log(2.0), 1e-8)
    guess = 0.5 * (c0 + c1) - cells * (c1 - c0)
    assert 0.6125 < guess
    x, seen, caught = counted_root(f, guess, 1e-8)
    assert len(seen) <= 8 and caught == [] and scans == []
    assert x == counted_root(f, None, 1e-8)[0]


def counted_root(f, guess, xtol):
    """hybrid_root on (0, 3.5) with 40 scan cells: the root, the points
    where f was evaluated in order, and the warning categories."""
    seen = []

    def counted(x):
        seen.append(x)
        return f(x)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x = hybrid_root(counted, 0.0, 3.5, scan_n=40, xtol=xtol, ftol=1e-12, guess=guess)
    return x, seen, [w.category for w in caught]


@pytest.mark.parametrize("offset, far", [(0.5, False), (-0.5, False), (1.5, True), (-1.5, True)])
def test_warm_cell_is_checked_with_the_newton_start_values(offset, far):
    # 6.7e-7 wide final cells hold both slope points mid +- _FD_STEP.  The
    # root `offset` slope steps from mid: within one step the midpoint and
    # the slope point toward the root show the sign change (4 values with
    # Newton's other slope point and its iterate).  Beyond it their secant
    # root stays in the cell, so Newton's first iterate x is read before
    # the cell's end.  f is convex: from below the root x lands above it
    # and confirms the cell (4 values); from above x stays above it, so the
    # cell's lower end is read too (5)
    c0, c1 = scan_tree_cell(1.0, 1e-6)
    mid, step = 0.5 * (c0 + c1), math.copysign(_FD_STEP, offset)
    assert c0 < mid - _FD_STEP and mid + _FD_STEP < c1
    r = mid + offset * _FD_STEP
    f = lambda x: math.exp(x - r) - 1.0  # noqa: E731
    x, seen, caught = counted_root(f, 1.0, 1e-6)
    end = [c0] if far and offset < 0 else []
    assert seen == [mid, mid + step, mid - step, x, *end]
    assert caught == [] and x == counted_root(f, None, 1e-6)[0]


@pytest.mark.parametrize("side", [1, -1])
def test_warm_cell_narrower_than_the_slope_step_reads_its_end(side):
    # 5.2e-9 wide final cells cannot hold mid +- _FD_STEP: the midpoint is
    # paired with the end of the scan cell (0.9625, 1.05) across the root,
    # their secant root stays in the cell, and the cell's end toward the
    # root decides; then Newton reads both slope points and its iterate
    c0, c1 = scan_tree_cell(1.0, 1e-8)
    mid = 0.5 * (c0 + c1)
    r = mid + side * 0.25 * (c1 - c0)
    f = lambda x: math.exp(x - r) - 1.0  # noqa: E731
    x, seen, caught = counted_root(f, 1.0, 1e-8)
    ends = [1.05, c1] if side > 0 else [0.9625, c0]
    assert seen == [mid, *ends, mid + _FD_STEP, mid - _FD_STEP, x]
    assert caught == [] and x == counted_root(f, None, 1e-8)[0]


def test_warm_start_on_a_decreasing_function_falls_back_and_warns():
    # f decreases through the guess: f(mid) > 0 in every hunted cell, so
    # the hunt looks for the root below mid.  The first cell's midpoint and
    # slope point have their secant root 1.0 in that cell.  Newton's first
    # iterate, from the other slope point, lies above mid, not on the side
    # the hunt expects, so it is not evaluated; the cell's lower end is read
    # and fails.  The next cell's midpoint and slope point send the
    # hunt back to the first cell, whose values are kept, and so on until
    # _HUNT_CELLS cells are checked.  The full scan then warns, bisects and
    # returns the cold root, reading the hunt's values it passes from the
    # per-solve memo.
    f = lambda x: 1.0 - math.exp(x - 1.0)  # noqa: E731
    x, seen, caught = counted_root(f, 1.0, 1e-6)
    cold, cold_seen, cold_caught = counted_root(f, None, 1e-6)
    c0, c1 = scan_tree_cell(1.0, 1e-6)
    d0, d1 = scan_tree_cell(c0 - 0.5 * (c1 - c0), 1e-6)
    mid, mid2 = 0.5 * (c0 + c1), 0.5 * (d0 + d1)
    assert mid < 1.0 and d1 == c0
    hunt = [mid, mid - _FD_STEP, mid + _FD_STEP, c0, mid2, mid2 - _FD_STEP]
    assert seen == hunt + [t for t in cold_seen if t not in hunt]
    assert len(seen) < len(cold_seen) + len(hunt)
    assert (x, caught) == (cold, cold_caught) == (cold, [MultipleRootWarning])


def test_cold_solve_equals_the_scan_bisect_polish_reference():
    # hybrid_root without a guess takes the scan cell's final cell from
    # predicted_cell and bisects only after a warning or a failed
    # hunt; the root and the warnings equal the old scan, bisect and
    # polish bit for bit
    rng = random.Random(19)
    cases = [(lambda x: math.exp(x) - 2.0, 0.0, 3.5, 40, 1e-8, 1e-10),
             (lambda x: (x - 1.0) * (x - 2.0) * (x - 3.0), 0.0, 3.5, 40, 1e-8, 1e-10)]
    for k in range(60):
        m = rng.randint(4, 30)
        n = rng.choice((2, 3))
        b = 0.0 if k % 6 == 0 else rng.uniform(0.0, 0.3)
        lo = bifurcation._a_low(b)
        cases.append((lambda a, b=b, m=m, n=n: bifurcation._pq_gap(a, b, m, n),
                      lo, 4.0, 48, 1e-6, 1e-12))

    def outcome(solve, f, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                x = solve(f, *args)
            except DomainError as exc:
                x = (type(exc), str(exc))
        return x, [(w.category, str(w.message)) for w in caught]

    warned = 0
    for f, lo, hi, scan_n, xtol, ftol in cases:
        want = outcome(reference_cold_root, f, lo, hi, scan_n, xtol, ftol)
        got = outcome(lambda f, lo, hi, scan_n, xtol, ftol: hybrid_root(
            f, lo, hi, scan_n=scan_n, xtol=xtol, ftol=ftol), f, lo, hi, scan_n, xtol, ftol)
        assert got == want
        warned += bool(want[1])
    assert warned >= 1


@pytest.mark.parametrize("m", [4, 9, 14])
@pytest.mark.parametrize("n", [2, 3])
def test_warm_trace_equals_cold_solves(m, n):
    # figure1's default grid; a cold solve that warned would raise here
    grid = [0.07 * i / 70 for i in range(71)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", MultipleRootWarning)
        cold = [(b, solve_l(b, m, n)) for b in grid]
    assert trace_curve(m, n, grid).samples == cold


def test_warm_crossing_and_slopes_equal_cold_solves():
    # find_reversal's a* and central-difference slopes, and figure1's m = 5
    # crossing on its default grid; a cold solve that warned would raise here
    result = find_reversal(1e-5)
    m, b_star = result.m, result.b_star
    h = min(0.5 * result.curve2.samples[1][0], b_star)
    grid = [0.07 * i / 70 for i in range(71)]
    curve2, curve3 = trace_curve(5, 2, grid), trace_curve(5, 3, grid)
    (k,) = crossing_gaps(curve2, curve3)[1]
    b5, a5 = refine_crossing(curve2, curve3, k, 1e-11)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MultipleRootWarning)
        assert result.a_star == solve_l(b_star, m, 2)
        for n, slope in ((2, result.slope2), (3, result.slope3)):
            assert slope == (solve_l(b_star + h, m, n) - solve_l(b_star - h, m, n)) / (2.0 * h)
        assert a5 == solve_l(b5, 5, 2)


def test_find_reversal_solves_each_curve_point_once(monkeypatch):
    # refine_crossing returns the l_{m,2}(b*) that its crossing difference
    # solved at b*, instead of solving it a second time
    calls = []

    def counted(b, m, n, **kwargs):
        calls.append((b, m, n, kwargs["tol"]))
        return solve_l(b, m, n, **kwargs)

    monkeypatch.setattr(bifurcation, "solve_l", counted)
    result = find_reversal(1e-5)
    assert len(calls) == len(set(calls))
    assert (result.b_star, result.m, 2, 1e-12) in calls


def cold_crossing(curve2, curve3, k, width):
    """refine_crossing's (b*, a*) from the full bisection in b."""
    (lo, a2lo), (hi, a2hi) = curve2.samples[k], curve2.samples[k + 1]
    glo, ghi = a2lo - curve3.samples[k][1], a2hi - curve3.samples[k + 1][1]

    def gap(b):
        return _solve_near(curve2, b, 1e-12) - _solve_near(curve3, b, 1e-12)

    c0, c1, _, _ = bisect(gap, lo, hi, glo, ghi, width)
    b_star = 0.5 * (c0 + c1)
    return b_star, _solve_near(curve2, b_star, 1e-12)


@pytest.fixture
def cold_bisections(monkeypatch):
    """Counts refine_crossing's cold fallbacks: its module binding of
    bisect serves nothing else."""
    calls = []

    def counted(*args):
        calls.append(args)
        return bisect(*args)

    monkeypatch.setattr(bifurcation, "bisect", counted)
    return calls


@pytest.mark.parametrize("m_max, grid_n", [(14, 71), (24, 201)])
def test_warm_crossing_equals_cold_bisection_on_figure1_families(
    m_max, grid_n, cold_bisections
):
    # figure1's default family and its --m-max 24 --grid 201 run
    grid = [0.07 * i / (grid_n - 1) for i in range(grid_n)]
    for m in range(4, m_max + 1):
        curve2, curve3 = trace_curve(m, 2, grid), trace_curve(m, 3, grid)
        (k,) = crossing_gaps(curve2, curve3)[1]
        want = cold_crossing(curve2, curve3, k, 1e-11)
        assert refine_crossing(curve2, curve3, k, 1e-11) == want, m
    # the cold crossings above call solvers.bisect directly
    assert cold_bisections == []


def test_warm_crossing_equals_cold_bisection_in_find_reversal(cold_bisections):
    rng = random.Random(17)
    for _ in range(20):
        b_bar = 10.0 ** rng.uniform(math.log10(4e-8), -4.0)
        result = find_reversal(b_bar)
        (k,) = crossing_gaps(result.curve2, result.curve3)[1]
        width = max(1e-13, 1e-7 * b_bar)
        want = cold_crossing(result.curve2, result.curve3, k, width)
        assert (result.b_star, result.a_star) == want, b_bar
    assert cold_bisections == []


@pytest.fixture(scope="module")
def curves_m5():
    grid = [0.07 * i / 70 for i in range(71)]
    curve2, curve3 = trace_curve(5, 2, grid), trace_curve(5, 3, grid)
    (k,) = crossing_gaps(curve2, curve3)[1]
    return curve2, curve3, k


def test_decreasing_crossing_runs_the_cold_bisection(curves_m5, cold_bisections):
    # with the curves swapped the difference decreases through the bracket
    curve2, curve3, k = curves_m5
    want = cold_crossing(curve3, curve2, k, 1e-11)
    assert refine_crossing(curve3, curve2, k, 1e-11) == want
    assert len(cold_bisections) == 1


@pytest.fixture(scope="module")
def curves_m6_coarse():
    grid = [0.07 * i / 10 for i in range(11)]
    return trace_curve(6, 2, grid), trace_curve(6, 3, grid)


@pytest.mark.parametrize("k", [-1, 10, 11, True, 1.0])
def test_refine_crossing_refuses_an_index_off_the_samples(k, curves_m6_coarse):
    # k = -1 used to wrap round to the last sample and return (0.035, ...),
    # far from the crossing b* = 0.00452... in the first interval
    curve2, curve3 = curves_m6_coarse
    assert crossing_gaps(curve2, curve3)[1] == [0]
    assert refine_crossing(curve2, curve3, 0, 1e-11)[0] == pytest.approx(0.00452, abs=1e-5)
    with pytest.raises(DomainError, match=re.escape(f"need an integer 0 <= k <= 9, got {k!r}")):
        refine_crossing(curve2, curve3, k, 1e-11)


@pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, -1e-11])
def test_refine_crossing_refuses_an_unusable_width(width, curves_m6_coarse):
    # NaN and inf used to stop every bisection at once and return the
    # sample interval's midpoint (0.0035, 1.958499606757987) as the crossing
    curve2, curve3 = curves_m6_coarse
    with pytest.raises(DomainError, match=re.escape(f"need a finite width >= 0, got {width!r}")):
        refine_crossing(curve2, curve3, 0, width)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_solves_refuse_an_unusable_tolerance(tol, curves_m6_coarse):
    # a NaN tol is never met, and the last Newton iterate came back as a
    # root: solve_l(0.01, 5, 2, tol=nan) returned 1.9118990857551197
    match = re.escape(f"need finite tolerances >= 0, got xtol=1e-06, ftol={tol!r}")
    with pytest.raises(DomainError, match=match):
        solve_l(0.01, 5, 2, tol=tol)
    with pytest.raises(DomainError, match=match):
        trace_curve(5, 2, [0.0, 0.01, 0.02], tol=tol)
    curve2, curve3 = curves_m6_coarse
    with pytest.raises(DomainError, match=match):
        refine_crossing(curve2, curve3, 0, 1e-11, tol=tol)
    for xtol in (math.nan, math.inf, -1e-6):
        with pytest.raises(DomainError, match=re.escape(f"got xtol={xtol!r}, ftol=1e-12")):
            hybrid_root(lambda x: x - 1.0, 0.0, 2.0, xtol=xtol)


@pytest.mark.parametrize("lo, hi", [(3.7, 3.0), (3.0, 3.0), (math.nan, 3.0), (3.0, math.nan)])
def test_hybrid_root_refuses_an_empty_or_reversed_interval(lo, hi):
    # (3.7, 3.0) used to scan backwards and end in ConvergenceError,
    # although 3.5 is a simple root between the two ends
    calls = []

    def f(x):
        calls.append(x)
        return x - 3.5

    with pytest.raises(DomainError, match=re.escape(f"got lo={lo!r}, hi={hi!r}")):
        hybrid_root(f, lo, hi)
    with pytest.raises(DomainError, match=re.escape(f"got lo={lo!r}, hi={hi!r}")):
        hybrid_root(f, lo, hi, guess=3.5)
    assert calls == []


def test_solves_accept_a_zero_tolerance():
    assert hybrid_root(lambda x: x - 0.7, 0.0, 2.0, xtol=0.0, ftol=0.0) == 0.7


def test_refine_crossing_at_width_zero_stops_at_float_resolution(curves_m6_coarse):
    curve2, curve3 = curves_m6_coarse
    b_star, _ = refine_crossing(curve2, curve3, 0, 0.0)
    assert b_star == pytest.approx(refine_crossing(curve2, curve3, 0, 1e-11)[0], abs=1e-11)


@pytest.mark.parametrize("grid", [
    [0.06 * i / 10 for i in range(11)],  # same count, other spacing
    [0.07 * i / 11 for i in range(12)],  # one point more: zip would drop it
])
def test_crossing_refuses_curves_on_different_grids(grid, curves_m6_coarse):
    curve2, _ = curves_m6_coarse
    curve3 = trace_curve(6, 3, grid)
    for call in (
        lambda: crossing_gaps(curve2, curve3),
        lambda: refine_crossing(curve2, curve3, 0, 1e-11),
    ):
        with pytest.raises(DomainError, match="different b-grids"):
            call()


@pytest.mark.parametrize("shift", [-4, -3, -1, 1, 3, 4, 9])
def test_crossing_prediction_cells_off(shift, curves_m5, cold_bisections, monkeypatch):
    # the prediction moved `shift` final cells away from the cold answer's
    # cell: the hunt's secant steps lead back to it between the two
    # samples, where the hunt of one cell at a time gave up from
    # _HUNT_CELLS cells off and bisected; the cold answer comes out
    curve2, curve3, k = curves_m5
    want = cold_crossing(curve2, curve3, k, 1e-11)
    cell = _tree_cell(curve2.samples[k][0], curve2.samples[k + 1][0], 1e-11, want[0])
    moved = want[0] + shift * (cell[1] - cell[0])
    warm_bracket = solvers._warm_bracket
    monkeypatch.setattr(
        solvers, "_warm_bracket",
        lambda f, lo, hi, n, xtol, guess: warm_bracket(f, lo, hi, n, xtol, moved),
    )
    assert refine_crossing(curve2, curve3, k, 1e-11) == want
    assert cold_bisections == []


def test_predicted_cell_is_the_bisection_cell():
    seen = []

    def f(x):
        seen.append(x)
        return math.exp(x) - 2.0

    # a bracket as short against the curvature as two curve samples are:
    # three midpoints, the last the final cell's, and that cell's end,
    # against 27 midpoints
    lo, hi = 0.69, 0.7
    flo, fhi = math.exp(lo) - 2.0, math.exp(hi) - 2.0
    cold = bisect(f, lo, hi, flo, fhi, 1e-10)[:2]
    assert len(seen) == 27
    del seen[:]
    assert predicted_cell(f, lo, hi, flo, fhi, 1e-10) == cold
    assert len(seen) == 4
    # a decreasing bracket, or one already narrower than xtol: no prediction
    del seen[:]
    assert predicted_cell(lambda x: -f(x), lo, hi, -flo, -fhi, 1e-10) is None
    assert predicted_cell(f, lo, hi, flo, fhi, 0.02) is None
    assert seen == []


def test_one_cell_tree_starts_from_the_bracket_ends():
    lo, hi = 0.3, 0.9
    assert lo + (hi - lo) != hi  # the scan's node formula would not give hi
    assert _tree_cell(lo, hi, 1.0, 0.5) == (lo, hi)
    c0, c1 = _tree_cell(lo, hi, 1e-3, hi - 1e-9)
    assert c1 == hi and 0.0 < c1 - c0 <= 1e-3
    c0, c1 = _tree_cell(lo, hi, 1e-3, lo + 1e-9)
    assert c0 == lo and 0.0 < c1 - c0 <= 1e-3


def test_newton_polish_evaluates_each_point_once():
    seen = []

    def f(x):
        seen.append(x)
        return math.exp(x) - 2.0

    root = newton_polish(f, 0.9, 0.0, 1.5, ftol=1e-14)
    assert abs(math.exp(root) - 2.0) <= 1e-14
    assert len(seen) == len(set(seen))
    assert seen[-1] == root


def _logged(f):
    """f, and the list of the points it is evaluated at."""
    seen = []
    return (lambda x: seen.append(x) or f(x)), seen


def test_scan_brackets_keeps_a_node_where_f_is_zero():
    # node 2 of 4 on (0, 2) is the root 1.0: the node is one zero-width
    # bracket, and the cell that ends there is none (it was a second
    # bracket, and hybrid_root warned "2 sign changes")
    brackets, monotone = scan_brackets(lambda x: x - 1.0, 0.0, 2.0, 4)
    assert brackets == [(1.0, 1.0, 0.0, 0.0)]
    assert monotone
    with warnings.catch_warnings():
        warnings.simplefilter("error", MultipleRootWarning)
        assert hybrid_root(lambda x: x - 1.0, 0.0, 2.0) == 1.0
    # a root at lo or at hi is found too, reached from either sign (2 - x
    # had no bracket at hi)
    for f, root in ((lambda x: x, 0.0), (lambda x: -x, 0.0),
                    (lambda x: x - 2.0, 2.0), (lambda x: 2.0 - x, 2.0)):
        assert scan_brackets(f, 0.0, 2.0, 4)[0] == [(root, root, 0.0, 0.0)]


def test_bisect_returns_a_zero_end_and_refuses_a_bracket_without_sign_change():
    f, seen = _logged(lambda x: x - 0.3)
    assert bisect(f, 1.0, 2.0, 0.0, 3.0, 1e-6) == (1.0, 1.0, 0.0, 0.0)
    assert bisect(f, 0.0, 1.0, -1.0, 0.0, 1e-6) == (1.0, 1.0, 0.0, 0.0)
    with pytest.raises(BracketError, match=re.escape("no sign change on [0.0, 1.0]")):
        bisect(f, 0.0, 1.0, 1.0, 2.0, 1e-6)
    with pytest.raises(BracketError, match=re.escape("no sign change on [0.0, 1.0]")):
        bisect(f, 0.0, 1.0, -2.0, -1.0, 1e-6)
    assert seen == []


@pytest.mark.parametrize("start, lo, hi, half", [(3.0, 0.0, 4.0, 1.5), (-1.0, -2.0, 2.0, 0.5)])
def test_newton_polish_halves_toward_the_end_when_a_step_leaves_the_bracket(start, lo, hi, half):
    # atan's Newton step from two units off its root lands 5.5 units away,
    # past the end ahead: the next iterate is the midpoint of the start and
    # that end
    f, seen = _logged(lambda x: math.atan(x - 1.0))
    assert newton_polish(f, start, lo, hi, ftol=1e-14) == 1.0
    assert seen[:4] == [start, start + _FD_STEP, start - _FD_STEP, half]


def test_newton_polish_refuses_a_flat_or_stalled_iteration():
    # a zero slope at the start: no step to take
    with pytest.raises(ConvergenceError, match=re.escape(
            "|f| = 1.000e+00 above tolerance 1.000e-12")):
        newton_polish(lambda x: 1.0 + x * x, 0.0, -1.0, 1.0, ftol=1e-12)
    # the root lies 1e-20 below 0.1, under half an ulp: the step rounds
    # back onto the start, whose |f| is 1e10
    with pytest.raises(ConvergenceError, match=re.escape(
            "|f| = 1.000e+10 above tolerance 1.000e-12")):
        newton_polish(lambda x: (x - 0.1) * 1e30 + 1e10, 0.1, 0.0, 1.0, ftol=1e-12)


def test_newton_polish_accepts_the_iterate_of_its_last_step():
    # x^3's triple root: Newton converges linearly, so |f| falls on each of
    # the 60 steps; at a tolerance equal to the last |f| only the last
    # iterate passes, after the loop, and at any smaller one none does
    f, seen = _logged(lambda x: x**3)
    with pytest.raises(ConvergenceError):
        newton_polish(f, 1.0, -1.0, 2.0, ftol=0.0)
    iterates = seen[::3]
    assert len(iterates) == 61
    values = [abs(x**3) for x in iterates]
    assert all(u > v for u, v in zip(values, values[1:]))
    assert newton_polish(lambda x: x**3, 1.0, -1.0, 2.0, ftol=values[-1]) == iterates[-1]


def test_predicted_cell_exits_where_the_prediction_leaves_the_bracket():
    # an end value so close to zero that the chord root rounds onto that
    # end: no prediction, and f is never evaluated
    f, seen = _logged(lambda x: x - 1.0)
    assert predicted_cell(f, 1.0, 2.0, -1e-300, 1.0, 1e-6) is None
    assert seen == []
    # f's root 5.0 lies beyond the bracket that the stated end values
    # suggest: the secant of the first cell's midpoint and slope point
    # leaves the bracket at once
    f, seen = _logged(lambda x: x - 5.0)
    c0, c1 = _tree_cell(0.0, 1.0, 1e-6, 0.5)
    mid = 0.5 * (c0 + c1)
    assert predicted_cell(f, 0.0, 1.0, -1.0, 1.0, 1e-6) is None
    assert seen == [mid, mid + _FD_STEP]
    # cells narrower than the slope step: the first secant pairs the
    # midpoint with hi, whose stated value is not evaluated, and lands at
    # 0.909 inside; the second pairs the next midpoint with the first and
    # leaves
    f, seen = _logged(lambda x: x - 5.0)
    c0, c1 = _tree_cell(0.0, 1.0, 1e-8, 0.5)
    assert predicted_cell(f, 0.0, 1.0, -1.0, 1.0, 1e-8) is None
    assert seen[0] == 0.5 * (c0 + c1) and len(seen) == 2
    assert seen[1] == pytest.approx(0.5 + 4.5 * 0.5 / 5.5, abs=1e-8)


def test_predicted_cell_stops_its_secant_on_a_repeated_value():
    # a step function: each cell's slope points repeat its midpoint's
    # value, so the secant has no root and Newton's slope is zero, the
    # cell's end toward the root decides, and a failed end moves the hunt
    # one 0.0625 wide cell on.
    # The step at 0.6 is in the third cell from the chord root 0.5, the
    # bisection's cell; a step at 0.75 is in the fifth, beyond the
    # _HUNT_CELLS cells of the hunt
    f, seen = _logged(lambda x: -0.5 if x < 0.6 else 0.5)
    cell = predicted_cell(f, 0.0, 1.0, -1.0, 1.0, 0.1)
    mids = (0.46875, 0.53125, 0.59375)
    assert seen == [t for mid, end in zip(mids, (0.5, 0.5625, 0.625))
                    for t in (mid, mid + _FD_STEP, mid - _FD_STEP, end)]
    assert cell == bisect(f, 0.0, 1.0, -1.0, 1.0, 0.1)[:2] == (0.5625, 0.625)
    f = lambda x: -0.5 if x < 0.75 else 0.5  # noqa: E731
    assert predicted_cell(f, 0.0, 1.0, -1.0, 1.0, 0.1) is None
