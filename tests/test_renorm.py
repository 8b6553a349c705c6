import math
import re

import pytest

from lozilab import (
    MINUS,
    PLUS,
    Params,
    Regime,
    build_partition,
    classify_regime,
    iterate_line_bwd,
    log_coord,
    multipliers,
    r_value,
    u_value,
    verify,
)
from lozilab.bifurcation import C3, C4, solve_l
from lozilab.core import DomainError, RegionError
from lozilab.geometry import stable_line

from helpers import exists_Cmn

P18 = Params(1.8, 0.2)


def test_partition_closed_form_traces():
    verify.dyadic_traces()
    strips = {s.label: s for s in build_partition(Params(2.0, 0.0), m_max=10)}
    for m in range(2, 11):
        assert strips[f"C{m}"].left.trace == pytest.approx(
            1.0 - 2.0 / (2.0 ** (m - 2) * 3.0) if m > 2 else 1.0 / 3.0, abs=1e-12
        )


def test_partition_figure_configuration():
    strips = {s.label: s for s in build_partition(P18, m_max=8)}
    assert strips["D"].left.trace < 0.0 < strips["C2"].left.trace
    assert strips["B"].left.trace <= 0.0
    assert strips["B"].right.trace == pytest.approx(r_value(P18, 1), abs=1e-12)
    assert strips["D"].right.trace == pytest.approx(r_value(P18, math.inf), abs=1e-10)


def test_partition_traces_increase():
    for b in (0.02, 0.1, 0.2, 0.3):
        for i in range(4):
            a = 3 * b + 1.2 + 0.6 * i
            strips = build_partition(Params(a, b), m_max=12)
            labels = [s.label for s in strips]
            assert labels[0] == "B" and labels[-1] == "D"
            cs = [s for s in strips if s.label.startswith("C")]
            traces = [c.left.trace for c in cs] + [cs[-1].right.trace]
            assert all(x < y for x, y in zip(traces, traces[1:]))


def test_partition_lines_equal_line_by_line_pullbacks():
    # the strip boundaries come from the trace ladder's sweep; each must be
    # the BwdLine that pulling the previous boundary back once gives
    for p in (P18, Params(2.0, 0.0), Params(3.9, 0.3), Params(1.0 + 3 * 0.1 + 1e-9, 0.1)):
        betas = [stable_line(p, PLUS)]
        for _ in range(15):
            betas.append(iterate_line_bwd(p, (MINUS,), betas[-1]))
        gammas = [iterate_line_bwd(p, (PLUS,), beta) for beta in betas]
        strips = build_partition(p, m_max=16)
        assert [(s.left, s.right) for s in strips[:-1]] == (
            [(betas[1], betas[0])] + list(zip(gammas, gammas[1:]))
        )


def test_partition_rejects_outside_mod():
    with pytest.raises(RegionError):
        build_partition(Params(1.5, 0.2))
    # refused as a count, not left to fail inside range()
    for m_max in (1, 2.5, 4.0, True):
        with pytest.raises(DomainError, match="need an integer 2 <= m_max"):
            build_partition(P18, m_max=m_max)


def test_partition_reports_float_resolution():
    # r_inf - r_m ~ lam^-m falls below one ulp of r_inf near m = 30 at a = 3.5
    with pytest.raises(DomainError, match=r"r_30 .*float resolution"):
        build_partition(Params(3.5, 0.01), m_max=30)


def test_partition_rows_schema():
    strips = build_partition(P18, m_max=4)
    assert [s.label for s in strips] == ["B", "C2", "C3", "C4", "D"]
    for s in strips:
        assert s.left.trace <= s.right.trace


def test_strip_contains_band_clipping():
    strip = build_partition(P18, m_max=4)[-1]
    mid = 0.5 * (strip.left.trace + strip.right.trace)
    assert strip.contains((mid, 0.0))
    assert not strip.contains((mid, 1.5))


def test_exists_Cmn_examples():
    p0 = Params(2.0, 0.0)
    for m in range(3, 8):
        for n in range(2, m):
            assert exists_Cmn(p0, m, n)
    assert exists_Cmn(Params(1.71, 0.2), 3, 2)
    # period-doubling window: folds sit left of every trace
    p_small = Params(1.2, 0.04)
    assert p_small.a < math.sqrt(2.0) * (1 - 3 * p_small.b)
    assert not exists_Cmn(p_small, 3, 2)
    with pytest.raises(DomainError):
        exists_Cmn(P18, 1, 2)


def test_classify_regime_extremes():
    assert classify_regime(Params(3.6, 0.05), 5, 2) is Regime.LARGE
    assert classify_regime(Params(1.25, 0.04), 5, 2) is Regime.SMALL
    with pytest.raises(DomainError):
        classify_regime(P18, 2, 2)


@pytest.mark.parametrize("m, n", [(5.5, 2), (5, 2.5), (math.nan, 2), (5, math.inf)])
def test_classify_regime_refuses_the_pair_before_reading_a_ladder(m, n):
    # a fraction used to reach a ladder check naming the wrong value:
    # (5.5, 2) said "need an integer m >= 1, got 4.5", (5, 2.5) "... got 2.5"
    match = re.escape(f"need integers m > n >= 2, got ({m!r}, {n!r})")
    with pytest.raises(DomainError, match=match):
        classify_regime(P18, m, n)


def test_classify_regime_on_bifurcation_curve():
    for m, n, b in [(5, 2, 0.02), (6, 3, 0.01)]:
        a = solve_l(b, m, n)
        assert classify_regime(Params(a, b), m, n) is Regime.INTERMEDIATE


def test_log_coord_basics():
    r_inf = r_value(P18, math.inf)
    assert log_coord(P18, r_inf - 1.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        log_coord(P18, r_inf)
    # NaN is not below r_inf
    with pytest.raises(DomainError):
        log_coord(P18, math.nan)


def test_log_coord_trace_ladder_bounds():
    for p in (P18, Params(2.4, 0.25), Params(1.7, 0.05)):
        lam = multipliers(p).lam
        lo = math.log(0.2) / math.log(lam)
        hi = math.log(2.25) / math.log(lam)
        for m in range(2, 11):
            t = log_coord(p, r_value(p, m))
            assert m + lo < t < m + hi


def test_log_coord_fold_bounds_on_tangency_curve():
    # the fold offsets hold where the trace and fold limits coincide,
    # i.e. along the tangency curve, for b at most the 0.07 box ceiling
    from lozilab import tangency_a

    for b in (0.02, 0.05, 0.07):
        p = Params(tangency_a(b), b)
        lam = multipliers(p).lam
        scale = math.log(1.0 / p.b) / math.log(lam)
        for n in (2, 3):
            for side in "LR":
                t = log_coord(p, u_value(p, n, side))
                assert (n - 1) * scale + math.log(C3) / math.log(lam) <= t
                assert t <= (n - 1) * scale + math.log(C4) / math.log(lam)


def test_admissible_pair_sits_in_its_strips():
    # scan for the large regime, where the orbit pair must exist; at m = 7
    # the check reads a strip beyond the first six
    for m in (3, 7):
        verify.strip_membership(0.2, m, 2)
