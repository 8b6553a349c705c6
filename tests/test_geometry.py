import __future__
import argparse
import ast
import importlib
import math
import random
import re
import types
from pathlib import Path

import pytest

import lozilab
from lozilab import (
    MINUS,
    PLUS,
    BwdLine,
    Params,
    cli,
    fixed_points,
    geometry,
    iterate_line_bwd,
    multipliers,
    p_value,
    q_value,
    r_value,
    u_value,
    verify,
)
from lozilab.bifurcation import solve_l
from lozilab.core import DomainError, RegionError
from lozilab.geometry import (
    SlopeError,
    _pull_word,
    _push_word,
    _r_ladder,
    _return_word,
    _u_ladder,
    boundary_turning_points,
    stable_line,
)
from lozilab.symbolic import ItineraryError

from helpers import (
    apply_branch,
    apply_branch_inverse,
    exists_Cmn,
    fold_oracle,
    genuine_iterate,
    ref_fold,
    ref_pull,
    ref_pull_word,
    ref_push,
    ref_push_word,
    ref_return_word,
    ref_u_gap,
    stable_polyline_crossing,
    tent_orbit_crossing,
)

P18 = Params(1.8, 0.2)

MOD_GRID = [
    Params(3.0 * b + 1.15 + (3.9 - 3.0 * b - 1.15) * i / 4, b)
    for b in (0.02, 0.1, 0.2, 0.3)
    for i in range(5)
]


# ---------------------------------------------------------------- slopes
#
# A forward line is the pair (slope, k) of y = slope*x + k, as _push_word
# carries it; the helpers below give the one-step slope maps and the k of
# a line given by its slope and one point.

def _slope_fwd(p, sigma, slope):
    """Slope of the sigma-branch image of a line with the given slope."""
    return _push_word(p, (sigma,), slope, 0.0)[0]


def _slope_bwd(p, sigma, vslope):
    """Vertical slope of the sigma-branch preimage of a near-vertical line."""
    return _pull_word(p, (sigma,), vslope, 0.0)[0]


def _y_axis(slope, x0, y0):
    """k of the line with the given slope through (x0, y0)."""
    return y0 + slope * (0.0 - x0)


def _unstable_minus(p):
    """(slope, k) of the unstable line of z_-: slope 1/lam through (-1, -1)."""
    slope = 1.0 / multipliers(p).lam
    return slope, _y_axis(slope, *fixed_points(p)[0])


def _kernel_fold(p, word, slope, k):
    """Fold abscissa of the full-map image of the (slope, k) line pushed
    through `word` by _push_word: both branches send (0, k) to ((a-b-1) - b*k, 0)."""
    return (p.a - p.b - 1.0) - p.b * _push_word(p, word, slope, k)[1]


def test_slope_fixed_points():
    mult = multipliers(P18)
    assert _slope_fwd(P18, MINUS, 1 / mult.lam) == pytest.approx(1 / mult.lam)
    assert _slope_fwd(P18, PLUS, -1 / mult.lam) == pytest.approx(-1 / mult.lam)
    assert _slope_bwd(P18, MINUS, mult.mu) == pytest.approx(mult.mu)
    assert _slope_fwd(P18, MINUS, 0.0) == pytest.approx(1 / 1.8)
    assert _slope_bwd(P18, PLUS, 0.0) == pytest.approx(-1 / 9)
    assert _slope_bwd(Params(2.0, 0.0), PLUS, 0.3) == 0.0


def test_excluded_slopes():
    s = -P18.a / P18.b
    with pytest.raises(SlopeError, match=re.escape(f"slope {s} maps to a vertical line under branch +1")):
        _slope_fwd(P18, PLUS, s)
    with pytest.raises(SlopeError, match=re.escape("vslope 1.8 is excluded under inverse branch -1")):
        _slope_bwd(P18, MINUS, P18.a)
    # inside a word the message names the slope reaching the excluded step
    start = (P18.a - 1.0 / s) / P18.b
    mid = _slope_fwd(P18, MINUS, start)
    with pytest.raises(SlopeError, match=re.escape(f"slope {mid} maps to a vertical line under branch +1")):
        _push_word(P18, (MINUS, PLUS), start, 0.0)


@pytest.mark.parametrize("bad", [0, 7, 0.5, True, False])
def test_line_steps_refuse_symbols_outside_plus_minus_one(bad):
    bwd = BwdLine(vslope=0.05, anchor=(0.3, 0.0))
    match = re.escape(f"bad symbol {bad!r} in")
    for word in ((bad,), (PLUS, bad)):
        with pytest.raises(ItineraryError, match=match):
            iterate_line_bwd(P18, word, bwd)
    with pytest.raises(ItineraryError, match=match):
        stable_line(P18, bad)


def test_line_iteration_reads_a_one_pass_word_once():
    # the symbol check must not use up a word given as an iterator
    word = (PLUS, MINUS, MINUS)
    bwd = BwdLine(vslope=0.05, anchor=(0.3, 0.1))
    assert iterate_line_bwd(P18, iter(word), bwd) == iterate_line_bwd(P18, word, bwd)


# ------------------------------------------- word loops, bit for bit

KERNEL_WORDS = [(4, 2), (8, 2), (14, 3), (26, 2), (26, 3)]


def _kernel_params():
    # seeded draws from [sqrt(2), 4] x [0, 0.07], where a > 3b + 1 always
    # holds, plus the fixed parameters used elsewhere in this module
    rng = random.Random(61)
    drawn = [Params(rng.uniform(math.sqrt(2.0), 4.0), rng.uniform(0.0, 0.07)) for _ in range(40)]
    return drawn + [Params(1.9, 0.0), P18] + MOD_GRID


def test_gap_kernel_matches_per_symbol_reference_exactly():
    for p in _kernel_params():
        assert p.in_mod
        line = _unstable_minus(p)
        for m, n in KERNEL_WORDS:
            word = ref_return_word(m, n)
            assert p_value(p, m, n) == ref_fold(p, word, 0.0, 0.0)
            assert q_value(p, m, n) == ref_pull_word(p, word, 0.0, 0.0)[1]
            tail = (PLUS, PLUS) + (MINUS,) * (n - 2)
            assert _kernel_fold(p, tail, *line) == ref_fold(p, tail, *line)


def test_ladders_and_line_iteration_match_per_symbol_reference_exactly():
    # the float symbols +-1.0 are the same symbols as +-1
    words = [(), (PLUS,), (-1.0,), (1.0,), (MINUS,) * 5, (PLUS, MINUS, MINUS, PLUS, PLUS, MINUS),
             ref_return_word(14, 3)]
    slope = 0.3
    k = _y_axis(slope, 0.2, -0.4)
    bwd = BwdLine(vslope=0.05, anchor=(0.3, 0.1))
    for p in _kernel_params():
        stable = stable_line(p, PLUS)
        for m in (1, 2, 5, 13, 26):
            want = ref_pull_word(p, (PLUS,) + (MINUS,) * (m - 1), stable.vslope, stable.trace)
            assert r_value(p, m) == want[1]
        for m in (2, 3, 8, 26):
            for side, y0 in (("L", -1.0), ("R", 1.0)):
                assert u_value(p, m, side) == ref_fold(p, (PLUS,) + (MINUS,) * (m - 2), 0.0, y0)
        assert _kernel_fold(p, (), slope, k) == ref_fold(p, (), slope, k)
        for sigma in (MINUS, PLUS, -1.0, 1.0):
            assert _slope_fwd(p, sigma, slope) == ref_push(p, sigma, slope, 0.0)[0]
            assert _slope_bwd(p, sigma, bwd.vslope) == ref_pull(p, sigma, bwd.vslope, 0.0)[0]
            assert repr(stable_line(p, sigma)) == repr(stable_line(p, int(sigma)))
        for word in words:
            assert _push_word(p, word, slope, k) == ref_push_word(p, word, slope, k)
            vslope, c = ref_pull_word(p, word, bwd.vslope, bwd.trace)
            assert iterate_line_bwd(p, word, bwd) == BwdLine(vslope=vslope, anchor=(c, 0.0))


# Near the tent limit a carried slope stops changing as a float after a few
# repeated symbols; the kernels then skip the slope update.  These words run
# long in that regime and switch symbol right after it.
FIXED_SLOPE_B = (0.0, 1e-12, 4e-8, 1e-4)


def _fixed_slope_params():
    for b in FIXED_SLOPE_B:
        for m in (3, 8, 15, 26, 40):
            yield m, Params(2.0 - 2.4 * 2.0**-m, b)


def _switch_words(m):
    return [
        ref_return_word(m, 2),
        ref_return_word(m, 3),
        (MINUS,) * m + (PLUS,) + (MINUS,) * 3,
        (PLUS,) * m + (MINUS, MINUS, PLUS),
        (MINUS, MINUS) * 3 + (MINUS,) * m + (PLUS, PLUS) + (MINUS,) * m,
    ]


def _fixed_steps(step, word, s):
    """Symbols that repeat the one before them after a step that left the
    carried slope unchanged, counted with a per-symbol reference step."""
    count, prev, still = 0, None, False
    for sigma in word:
        count += sigma == prev and still
        new = step(sigma, s)
        prev, still, s = sigma, new == s, new
    return count


def test_fixed_slope_steps_match_per_symbol_reference_exactly():
    kernels = (
        (_push_word, ref_push_word, lambda p, sigma, s: ref_push(p, sigma, s, 0.0)[0], 1),
        (_pull_word, ref_pull_word, lambda p, sigma, s: ref_pull(p, sigma, s, 0.0)[0], -1),
    )
    fired = [0, 0]
    for m, p in _fixed_slope_params():
        assert p.in_mod
        line = _unstable_minus(p)
        for n in (2, 3):
            word = ref_return_word(m, n)
            assert p_value(p, m, n) == ref_fold(p, word, 0.0, 0.0)
            assert q_value(p, m, n) == ref_pull_word(p, word, 0.0, 0.0)[1]
            tail = (PLUS, PLUS) + (MINUS,) * (n - 2)
            assert _kernel_fold(p, tail, *line) == ref_fold(p, tail, *line)
        for word in _switch_words(m):
            # int symbols; float symbols shared as _return_word shares them;
            # and floats that are equal but distinct objects
            shared = {PLUS: 1.0, MINUS: -1.0}
            for symbols in (
                word,
                tuple(shared[sigma] for sigma in word),
                tuple(float(sigma) for sigma in word),
            ):
                for s0 in (0.0, -0.0, 0.3):
                    for i, (kernel, ref, step, order) in enumerate(kernels):
                        for k in (0.0, -0.7):
                            got, want = kernel(p, symbols, s0, k), ref(p, word, s0, k)
                            assert got == want
                            assert math.copysign(1.0, got[0]) == math.copysign(1.0, want[0])
                        fired[i] += _fixed_steps(lambda sigma, s: step(p, sigma, s), word[::order], s0)
    # the sweep does exercise the fixed-slope steps, on both kernels
    assert min(fired) > 1000, fired


def test_slope_error_unchanged_for_int_and_float_words():
    def raised(kernel, p, word, s, k):
        with pytest.raises(SlopeError) as info:
            kernel(p, word, s, k)
        return str(info.value)

    p = Params(2.0, 0.5)
    # b*4.0 - a == 0 under the minus branch, at the first step
    for word in ((MINUS, MINUS), (-1.0, -1.0)):
        assert raised(_push_word, p, word, 4.0, 0.0) == "slope 4.0 maps to a vertical line under branch -1"
        assert raised(_pull_word, p, word, 2.0, 0.0) == "vslope 2.0 is excluded under inverse branch -1"
    # at the second step, after a minus step that lands on the excluded slope
    s = -P18.a / P18.b
    start = (P18.a - 1.0 / s) / P18.b
    mid = ref_push(P18, MINUS, start, 0.0)[0]
    vstart = P18.a + P18.b / P18.a
    vmid = ref_pull(P18, MINUS, vstart, 0.0)[0]
    for word in ((MINUS, PLUS, PLUS), (-1.0, 1.0, 1.0)):
        want = f"slope {mid} maps to a vertical line under branch +1"
        assert raised(_push_word, P18, word, start, 0.0) == want
        want = f"vslope {vmid} is excluded under inverse branch +1"
        assert raised(_pull_word, P18, word[::-1], vstart, 0.0) == want


def test_return_word_cache_keyed_on_validated_ints():
    _return_word.cache_clear()
    word = _return_word(6, 3)
    assert word == ref_return_word(6, 3) and {type(sigma) for sigma in word} == {float}
    # one object per symbol, so that the kernels' identity test sees a repeat
    assert len({id(sigma) for sigma in word}) == 2
    _return_word.cache_clear()
    assert p_value(P18, 5.0, 2) == p_value(P18, 5, 2)
    assert q_value(P18, 5.0, 2.0) == q_value(P18, 5, 2)
    assert _return_word.cache_info().currsize == 1
    assert _return_word.cache_info().maxsize is not None
    assert solve_l(0.01, 5.0, 2) == solve_l(0.01, 5, 2)


def test_unstable_cone_invariance_and_contraction():
    rng = random.Random(2)
    for p in MOD_GRID:
        mult = multipliers(p)
        inv = 1.0 / mult.lam
        for _ in range(40):
            s = rng.uniform(-inv, inv)
            for sigma in (MINUS, PLUS):
                image = _slope_fwd(p, sigma, s)
                assert abs(image) <= inv * (1 + 1e-12)
                deriv = p.b / (p.b * s + sigma * p.a) ** 2
                assert 0.0 <= deriv <= p.b / mult.lam**2 * (1 + 1e-12)
            assert _slope_fwd(p, MINUS, s) >= s - 1e-15
            assert _slope_fwd(p, PLUS, s) <= s + 1e-15


def test_stable_cone_invariance_and_contraction():
    rng = random.Random(3)
    for p in MOD_GRID:
        mult = multipliers(p)
        for _ in range(40):
            s = rng.uniform(-mult.mu, mult.mu)
            for sigma in (MINUS, PLUS):
                image = _slope_bwd(p, sigma, s)
                assert abs(image) <= mult.mu * (1 + 1e-12)
                deriv = p.b / (s + sigma * p.a) ** 2
                assert 0.0 <= deriv <= p.b / mult.lam**2 * (1 + 1e-12)
            assert _slope_bwd(p, MINUS, s) >= s - 1e-15
            assert _slope_bwd(p, PLUS, s) <= s + 1e-15


# ------------------------------------------------------- line iteration

def test_forward_iteration_of_horizontal_line():
    slope, k = _push_word(P18, (PLUS,), 0.0, 1.0)
    assert slope == pytest.approx(-1 / 1.8)
    # the image passes through the fold of {y=1}
    assert slope * (P18.a - 2 * P18.b - 1.0) + k == pytest.approx(0.0, abs=1e-12)
    # pushed points stay collinear
    for x in (-1.0, 0.7):
        image = apply_branch(P18, PLUS, (x, 1.0))
        assert abs(slope * image[0] + k - image[1]) < 1e-12


def test_forward_slope_invariant_direction():
    mult = multipliers(P18)
    slope, _ = _push_word(P18, (MINUS,) * 5, *_unstable_minus(P18))
    assert slope == pytest.approx(1 / mult.lam)


def test_forward_then_inverse_returns_line():
    slope, x0, y0 = 0.2, 0.3, -0.4
    pushed, k = _push_word(P18, (PLUS,), slope, _y_axis(slope, x0, y0))
    # pull two points of the image back through the branch inverse
    for x in (-0.5, 1.1):
        v = apply_branch_inverse(P18, PLUS, (x, pushed * x + k))
        assert abs(y0 + slope * (v[0] - x0) - v[1]) < 1e-11


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
        assert _kernel_fold(p, (), 0.0, 1.0) == pytest.approx(u_left)
        assert _kernel_fold(p, (), 0.0, -1.0) == pytest.approx(u_right)


def test_turning_point_by_folding_sample_points():
    # the two branch images of points just left/right of the switching
    # line straddle the fold at height ~0
    p = Params(2.1, 0.3)
    slope, x0, y0 = -0.1, 0.5, -0.2
    fold = _kernel_fold(p, (), slope, _y_axis(slope, x0, y0))
    eps = 1e-6
    for x in (-eps, eps):
        v = (x, y0 + slope * (x - x0))
        image = apply_branch(p, PLUS if x >= 0 else MINUS, v)
        assert abs(image[0] - fold) < 1e-5 and abs(image[1]) < 1e-5


def test_turning_point_degenerate_family():
    p = Params(1.7, 0.0)
    for k in (-2.0, 0.0, 1.5):
        assert _kernel_fold(p, (), 0.3, k) == pytest.approx(p.a - 1.0)


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
                x0, y0 = rng.uniform(-1, 1), rng.uniform(-1, 1)
                # intersection with {x = -sigma*mu*v + zeta, y = v + zeta}
                denom = 1.0 + sigma * mult.mu * s
                v = (y0 + s * (-sigma * mult.mu * 0 + zeta - x0) - zeta) / denom
                predicted = (
                    (p.a - p.b - 1.0)
                    - (1.0 + sigma * s * mult.mu) * p.b * v
                    - (1.0 - s) * p.b * zeta
                )
                assert _kernel_fold(p, (), s, _y_axis(s, x0, y0)) == pytest.approx(predicted, abs=1e-10)


# ------------------------------------------------------------- r ladder

@pytest.mark.parametrize("a", [1.5e154, 1e200])
def test_r_limit_refuses_a_multiplier_that_overflows(a):
    # a * a overflows, where lam read inf and r_value(p, inf) read nan
    p = Params(a, 0.5)
    assert p.in_mod
    with pytest.raises(DomainError, match=re.escape(f"multiplier lam overflows at ({a}, 0.5)")):
        r_value(p, math.inf)


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


def test_p_q_reject_bad_indices():
    _return_word.cache_clear()
    for m, n in ((5.7, 2), (5, 2.5), (math.inf, 2), (5, math.nan), (5, 1)):
        with pytest.raises(DomainError):
            q_value(P18, m, n)
    for m, n in ((5, 2.5), (5.5, 2), (math.inf, 2), (math.inf, 2.5), (5, math.nan)):
        with pytest.raises(DomainError):
            p_value(P18, m, n)
    # p_value has no m = inf limit form; it refuses inf as q_value does
    for value in (p_value, q_value):
        with pytest.raises(DomainError, match=r"^need an integer m >= 2, got inf$"):
            value(P18, math.inf, 3)
    # the return-word cache only ever sees validated indices
    assert _return_word.cache_info().currsize == 0


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
    # at b = 0 the derivatives of p_{m,n} at these finite m already equal
    # those of its m -> inf limit: 1 in a, and 1/a - 2 (n = 2), -1/a (n = 3) in b
    h = 1e-6
    for a in (1.7, 1.9):
        for m in (6, 12, 40):
            da = (
                p_value(Params(a + h, 0.0), m, 2)
                - p_value(Params(a - h, 0.0), m, 2)
            ) / (2 * h)
            assert da == pytest.approx(1.0, abs=1e-6)
            for n, want in ((2, 1.0 / a - 2.0), (3, -1.0 / a)):
                db = (
                    -3.0 * p_value(Params(a, 0.0), m, n)
                    + 4.0 * p_value(Params(a, h), m, n)
                    - p_value(Params(a, 2 * h), m, n)
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
    verify.ladders(MOD_GRID, 7)


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
    verify.r_bounds(MOD_GRID, 0.2, 2.25)


def test_u_gap_matches_direct_difference():
    # the fold ladder's cancellation-free gaps against u_inf - u_m
    for p in (P18, Params(2.5, 0.3), Params(1.9, 0.1)):
        u_inf = multipliers(p).lam - 1.0
        for side in "LR":
            for m, (_, gap) in enumerate(_u_ladder(p, side, 6), start=2):
                direct = u_inf - u_value(p, m, side)
                assert gap == pytest.approx(direct, abs=1e-13)


def test_exponential_u_bounds():
    # the gap itself drops below float resolution of the fold values for
    # small b, hence the cancellation-free evaluation
    verify.u_bounds(MOD_GRID, 0.25, (64.0 / 7.0) * math.log(2.0))


# ------------------------------------------------------------ ladder sweeps

def _sweep_params():
    """Seeded draws over the whole region a > 3b + 1, a <= 4, plus b = 0,
    points within 1e-9 and 1e-6 of the edge a = 3b + 1, and a = 4."""
    rng = random.Random(29)
    params = []
    for _ in range(30):
        b = rng.uniform(0.0, 0.99)
        params.append(Params(3.0 * b + 1.0 + (3.0 - 3.0 * b) * rng.uniform(1e-3, 1.0), b))
    params += [Params(a, 0.0) for a in (1.0 + 1e-9, 1.3, 2.0, rng.uniform(1.0, 4.0), 4.0)]
    for b in (0.0, 1e-7, 0.05, 0.2, 0.5, 0.9, 0.99):
        params += [Params(3.0 * b + 1.0 + 1e-9, b), Params(3.0 * b + 1.0 + 1e-6, b)]
    params += [Params(4.0, b) for b in (1e-12, 0.3, 0.999)]
    assert all(p.in_mod for p in params)
    return params


def test_ladder_sweeps_equal_single_rungs_bit_for_bit():
    for p in _sweep_params():
        rungs = list(_r_ladder(p, 40))
        assert [r for *_, r in rungs] == [r_value(p, m) for m in range(1, 41)]
        line = stable_line(p, PLUS)
        assert rungs[0][:2] == (line.vslope, line.trace)
        for j in (1, 7, 39):
            want = iterate_line_bwd(p, (MINUS,) * j, line)
            assert rungs[j][:2] == (want.vslope, want.anchor[0])
        for side, y0 in (("L", -1.0), ("R", 1.0)):
            folds, gaps = zip(*_u_ladder(p, side, 40))
            # u_value reads this ladder; ref_fold pushes each word afresh
            assert list(folds) == [
                ref_fold(p, (PLUS,) + (MINUS,) * (m - 2), 0.0, y0) for m in range(2, 41)]
            assert list(gaps) == [list(_u_ladder(p, side, m))[-1][1] for m in range(2, 41)]
            assert list(gaps) == [ref_u_gap(p, m, side) for m in range(2, 41)]


def test_ladder_sweep_lengths_and_whole_float_indices():
    assert len(list(_r_ladder(P18, 1))) == 1
    assert len(list(_u_ladder(P18, "R", 2))) == 1
    assert [r for *_, r in _r_ladder(P18, 5.0)] == [r_value(P18, m) for m in range(1, 6)]
    assert r_value(P18, 5.0) == r_value(P18, 5)
    assert u_value(P18, 5.0, "L") == u_value(P18, 5, "L")
    assert list(_u_ladder(P18, "L", 5.0)) == list(_u_ladder(P18, "L", 5))


@pytest.mark.parametrize("m", [True, False])
def test_ladder_indices_refuse_bools(m):
    # True used to pass as m = 1: r_value(P18, True) returned r_1
    for call in (
        lambda: r_value(P18, m),
        lambda: u_value(P18, m, "L"),
        lambda: list(_u_ladder(P18, "R", m)),
        lambda: list(_r_ladder(P18, m)),
        lambda: list(_u_ladder(P18, "L", m)),
    ):
        with pytest.raises(DomainError, match=f"need an integer m >= [12], got {m}"):
            call()


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
            x0, y0 = rng.uniform(-1, 1), rng.uniform(-1, 1)

            def crossing_parameter(tau):
                # solve the line through (x0, y0) == {(-tau*mu*v + zeta_tau, v + zeta_tau)} for v
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


# ------------------------------------------------------------ public surface

def _public_names(module):
    """The names `from module import *` binds (no __all__ is defined), less
    the modules and the __future__ feature that the module imports."""
    return sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and value is not __future__.annotations
    )


def test_public_surface_is_pinned():
    # a change to either list is an API change: update it with a CHANGES.md entry
    assert sorted(lozilab.__all__) == [
        "BifCurve", "BwdLine", "DomainError", "FormalPeriodicPoint", "Itinerary", "MINUS",
        "Multipliers", "OrbitClass", "OrbitKind", "Ordering", "PLUS",
        "Params", "Point", "Regime", "RegionError", "ReversalResult", "SpectrumError", "Strip",
        "UItinerary", "apply_map", "brute_periodic", "build_partition", "choose_m",
        "classify_orbit", "classify_regime", "cone_check", "find_reversal", "fixed_points",
        "forcing_check_tent", "formal_periodic_point", "format_itinerary", "iota",
        "iterate_line_bwd", "log_coord", "multipliers", "orbit_signs", "order_compare",
        "p_value", "parse_itinerary", "q_value", "r_value", "solve_l",
        "tangency_a", "trace_curve", "u_value",
    ]
    assert _public_names(geometry) == [
        "BwdLine", "C3", "C4", "C_RL", "C_RU", "C_UL", "C_UU", "DomainError", "Itinerary",
        "MINUS", "PLUS", "Params", "Point", "RegionError", "SLOPE_C", "SlopeError",
        "boundary_turning_points", "dataclass", "fixed_points", "iota", "iterate_line_bwd",
        "multipliers", "p_value", "q_value", "r_value", "stable_line", "u_value",
    ]


def test_cli_option_sets_are_pinned():
    # a new or retired option is a CLI change: update it with a CHANGES.md entry
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert {name: sorted(option for action in sub._actions for option in action.option_strings)
            for name, sub in commands.items()} == {
        "orbit": ["--help", "--itinerary", "-I", "-a", "-b", "-h"],
        "figure1": ["--b-max", "--grid", "--help", "--m-max", "--m-min", "--out", "--tol", "-h"],
        "partition": ["--help", "--m-max", "--out", "-a", "-b", "-h"],
        "verify": ["--help", "--out", "--seed", "-h"],
    }


def test_lazy_package_serves_each_name_from_its_home_module():
    listed = set(dir(lozilab))
    assert set(lozilab.__all__) <= listed
    for name in lozilab.__all__:
        home = importlib.import_module(f"lozilab.{lozilab._HOMES[name]}")
        assert getattr(lozilab, name) is getattr(home, name), name
    for name in ("bifurcation", "core", "geometry", "kneading", "oracle", "renorm",
                 "solvers", "symbolic", "verify"):
        assert name in listed
        assert getattr(lozilab, name) is importlib.import_module(f"lozilab.{name}")
    with pytest.raises(AttributeError, match=r"^module 'lozilab' has no attribute 'no_such_name'$"):
        lozilab.no_such_name
    namespace = {}
    exec("from lozilab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(lozilab.__all__)


def test_no_module_keeps_state_through_global():
    # module memos are functools caches and per-call ones solvers._Memo dicts,
    # so no call rebinds a module name
    modules = sorted(Path(lozilab.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
        assert found == [], (path.name, found)
