import math
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
)
from lozilab.bifurcation import ConditionError, ReversalError, choose_m
from lozilab.core import DomainError
from lozilab.solvers import (
    _HUNT_CELLS,
    BracketError,
    MultipleRootWarning,
    _tree_cell,
    hybrid_root,
    newton_polish,
)

from helpers import genuine_iterate, tent_orbit_crossing


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
    (lambda: find_reversal(1e-4, grid_points=1), "grid_points >= 2"),
    (lambda: find_reversal(0.0, m=10), "0 < b_bar < 1"),
], ids=["repeated-b", "one-grid-point", "zero-cap-with-m"])
def test_degenerate_b_grid_is_refused(call, refusal):
    # each used to divide by a zero grid spacing
    with pytest.raises(DomainError, match=refusal):
        call()


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
        choose_m(0.01)
    except ConditionError as exc:
        assert "gap" in str(exc)
    else:
        pytest.fail("expected ConditionError")


def test_choose_m_reports_float_resolution():
    # at this b_bar the third fold rounds onto the trace limit r_inf
    with pytest.raises(DomainError, match=r"\(m = 28\).*float resolution"):
        choose_m(1.107491395289921e-08)


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


def test_hybrid_root_warning_on_multiple_roots():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        root = hybrid_root(lambda x: (x - 1.0) * (x - 2.0) * (x - 3.0), 0.0, 3.5,
                           scan_n=40, xtol=1e-8, ftol=1e-10)
        assert any(issubclass(w.category, MultipleRootWarning) for w in caught)
    assert root == pytest.approx(3.0, abs=1e-8)


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
    c0, c1 = _tree_cell(0.0, 3.5, 40, 1e-8, cold)
    # the warm start hunts from the guess's final bisection cell through
    # _HUNT_CELLS cells toward the root's: within reach it beats the scan
    for k in range(_HUNT_CELLS):
        x, evals, _ = root(line, 0.5 * (c0 + c1) + k * (c1 - c0))
        assert x == cold and evals < cold_evals
    # one cell further, or outside (lo, hi): the hunt gives up, the scan runs
    x, evals, _ = root(line, 0.5 * (c0 + c1) + _HUNT_CELLS * (c1 - c0))
    assert (x, evals) == (cold, cold_evals + _HUNT_CELLS)
    for guess in (-1.0, 0.0, 3.5, 7.0):
        assert root(line, guess) == (cold, cold_evals, [])
    # the cubic decreases through 2.0: every hunted cell fails its sign
    # check, and the scan still warns and returns the rightmost root
    cubic = lambda x: (x - 1.0) * (x - 2.0) * (x - 3.0)  # noqa: E731
    x, evals, categories = root(cubic, 2.0)
    cold, cold_evals, cold_categories = root(cubic)
    assert (x, evals, categories) == (cold, cold_evals + _HUNT_CELLS, cold_categories)
    assert x == pytest.approx(3.0, abs=1e-8)
    assert MultipleRootWarning in categories


@pytest.mark.parametrize("m", [4, 9, 14])
@pytest.mark.parametrize("n", [2, 3])
def test_warm_trace_equals_cold_solves(m, n):
    # figure1's default grid; a cold solve that warned would raise here
    grid = [0.07 * i / 70 for i in range(71)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", MultipleRootWarning)
        cold = [(b, solve_l(b, m, n)) for b in grid]
    assert trace_curve(m, n, grid).samples == cold


def test_newton_polish_evaluates_each_point_once():
    seen = []

    def f(x):
        seen.append(x)
        return math.exp(x) - 2.0

    root = newton_polish(f, 0.9, 0.0, 1.5, ftol=1e-14)
    assert abs(math.exp(root) - 2.0) <= 1e-14
    assert len(seen) == len(set(seen))
    assert seen[-1] == root
