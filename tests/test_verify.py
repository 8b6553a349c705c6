"""Each invariant of lozilab.verify fails on a broken case, so the suites,
the acceptance criteria and the unit tests that pass through it cannot
pass vacuously."""

import dataclasses
import math
import random
import re

import pytest

from lozilab import (
    BwdLine, OrbitClass, OrbitKind, Ordering, Params, UItinerary, brute_periodic, geometry,
    symbolic, verify)
from lozilab.cli import main
from lozilab.core import DomainError, SingularSystemError
from lozilab.geometry import C_RL, C_RU, SLOPE_C

from helpers import counted_point_sets

P18 = Params(1.8, 0.2)
CYCLE = [UItinerary((), (s,)) for s in (-1, 0, 1)]


def _rock_paper_scissors(u, v):
    """Reflexive and antisymmetric, but CYCLE[0] < CYCLE[1] < CYCLE[2] < CYCLE[0]."""
    return (Ordering.EQUIVALENT, Ordering.LESS, Ordering.GREATER)[
        (CYCLE.index(v) - CYCLE.index(u)) % 3
    ]


# invariant -> (name in verify to patch, patch from the original or None, call)
BROKEN = {
    # a residual of exactly 1e-10 is not below the bound
    "orbit_residuals": ("formal_periodic_point",
                        lambda f: lambda p, w: dataclasses.replace(f(p, w), residual=1e-10),
                        lambda: verify.orbit_residuals([P18], range(1, 3))),
    "genuine_return": ("apply_map",
                       lambda f: lambda p, v: (f(p, v)[0] + 1e-8, f(p, v)[1]),
                       lambda: verify.genuine_return([P18], range(1, 3))),
    "orbit_equivalence": ("brute_periodic",
                          lambda f: lambda *a, **k: f(*a, **k)[:-1],
                          lambda: verify.orbit_equivalence([P18], range(1, 3), 10)),
    "orbit_equivalence-shared-coding": (
        "brute_periodic",
        lambda f: lambda *a, **k: f(*a, **k) + [(f(*a, **k)[0][0] + 1e-9, f(*a, **k)[0][1])],
        lambda: verify.orbit_equivalence([P18], range(1, 3), 10)),
    # each brute point coded as its next point is: the codings stay distinct,
    # but a period-2 point is then not the formal point of its coding
    "orbit_equivalence-coding": ("orbit_signs",
                                 lambda f: lambda p, v, n: f(p, v, n)[1:] + f(p, v, n)[:1],
                                 lambda: verify.orbit_equivalence([P18], range(1, 3), 10)),
    "trapped_orbits": ("classify_orbit",
                       lambda f: lambda p, v: OrbitClass(OrbitKind.ESCAPES_MINUS_INFINITY, 0),
                       lambda: verify.trapped_orbits([P18])),
    "cone_sweep": ("cone_check", lambda f: lambda p: False,
                   lambda: verify.cone_sweep([P18])),
    "r_bounds": (None, None, lambda: verify.r_bounds([P18], 1.0, 1.0)),
    "u_bounds": (None, None, lambda: verify.u_bounds([P18], 100.0, SLOPE_C)),
    # u_inf just above u_right = a - 1
    "ladders": ("u_value",
                lambda f: lambda p, m, side: p.a - 1.0 + 1e-9 if m == math.inf else f(p, m, side),
                lambda: verify.ladders([P18], 4)),
    "dyadic_traces": ("build_partition",
                      lambda f: lambda p, m_max: f(Params(2.0, 1e-3), m_max),
                      verify.dyadic_traces),
    "ladders-traces": (None, None, lambda: verify.ladders([Params(3.5, 0.01)], 30)),
    "strip_membership": ("formal_periodic_point",
                         lambda f: lambda p, w: dataclasses.replace(f(p, w), admissibility=-1e-9),
                         lambda: verify.strip_membership(0.2, 3, 2)),
    # the scan's a stop at 2.78, short of the partition region a > 3b + 1 = 3.1
    "strip_membership-no-large": (None, None, lambda: verify.strip_membership(0.7, 3, 2)),
    "strip_membership-C_m": ("build_partition",
                             lambda f: lambda p, m_max: _collapse(f(p, m_max), "C3"),
                             lambda: verify.strip_membership(0.2, 3, 2)),
    "strip_membership-C_n": ("build_partition",
                             lambda f: lambda p, m_max: _collapse(f(p, m_max), "C2"),
                             lambda: verify.strip_membership(0.2, 3, 2)),
    "strip_membership-certificate": ("apply_map",
                                     lambda f: lambda p, v: (-abs(f(p, v)[0]), f(p, v)[1]),
                                     lambda: verify.strip_membership(0.2, 3, 2)),
    "order_laws": ("order_compare", lambda f: _rock_paper_scissors,
                   lambda: verify.order_laws(CYCLE)),
    "order_laws-reflexive": ("order_compare",
                             lambda f: lambda u, v: Ordering.LESS if u == v else f(u, v),
                             lambda: verify.order_laws(CYCLE)),
    # CYCLE[0] ~ CYCLE[1] one way only
    "order_laws-symmetric": ("order_compare",
                             lambda f: lambda u, v: (Ordering.EQUIVALENT
                                                     if (u, v) == (CYCLE[0], CYCLE[1])
                                                     else f(u, v)),
                             lambda: verify.order_laws(CYCLE)),
    # LESS both ways
    "order_laws-antisymmetric": ("order_compare",
                                 lambda f: lambda u, v: Ordering.LESS if u != v else f(u, v),
                                 lambda: verify.order_laws(CYCLE)),
    "forcing_sweep": ("forcing_check_tent", lambda f: lambda *a: False,
                      lambda: verify.forcing_sweep(4, 1)),
    # a pair out of order: the coding of 0.5 lies above that of -0.5
    "monotone_coding": (None, None, lambda: verify.monotone_coding(1.83, [(0.5, -0.5)])),
}


# the failure a case must report where its invariant has several: a pair
# LESS both ways also breaks transitivity, but the table is read law by law
FAILURE = {
    "ladders-traces": "traces not increasing at (3.5, 0.01)",
    "order_laws": "transitivity fails",
    "order_laws-reflexive": "not reflexive",
    "order_laws-symmetric": "equivalence not symmetric",
    "order_laws-antisymmetric": "not antisymmetric",
    "strip_membership": "expected admissible pair",
    "strip_membership-no-large": "no large-regime parameter found for (3, 2) at b = 0.7",
    "strip_membership-C_m": ") not in C3",
    "strip_membership-C_n": ") not in C2",
    "strip_membership-certificate": "left-component certificate failed",
}


def _collapse(strips, label):
    """The strips with `label` narrowed to its left boundary."""
    return [dataclasses.replace(s, right=s.left) if s.label == label else s for s in strips]


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_invariant_fails_on_broken_case(case, monkeypatch):
    name, patch, call = BROKEN[case]
    if name is not None:
        call()  # passes unpatched, so the patch is what breaks it
        monkeypatch.setattr(verify, name, patch(getattr(verify, name)))
    with pytest.raises(AssertionError, match=re.escape(FAILURE[case]) if case in FAILURE else None):
        call()


# suite case -> (check id, name in verify to patch, patch from the original,
# the failure its detail must report)
BROKEN_IN_SUITE = {
    "full-horseshoe": ("convergence.regions", "r_value",
                       lambda f: lambda p, m: math.inf if m == math.inf else f(p, m),
                       "full-horseshoe bound fails"),
    "period-doubling": ("convergence.regions", "r_value",
                        lambda f: lambda p, m: -math.inf if m == 2 else f(p, m),
                        "period-doubling bound fails"),
    # the pulled line moved far right of D
    "pullback-left-d": ("partition.pullback", "iterate_line_bwd",
                        lambda f: lambda p, w, line: BwdLine(line.vslope, (100.0, 0.0)),
                        "pullback left D"),
    # the line not pulled back at all: it stays in D, on both sides of x = 0
    "pullback-wrong-side": ("partition.pullback", "iterate_line_bwd",
                            lambda f: lambda p, w, line: line,
                            "pullback on wrong side"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_IN_SUITE))
def test_suite_check_fails_on_broken_case(case, monkeypatch):
    check_id, name, patch, failure = BROKEN_IN_SUITE[case]
    suite = verify.SUITES[check_id.split(".")[0]]

    def check():
        return next(c for c in suite(0) if c.id == check_id)

    assert check().passed
    monkeypatch.setattr(verify, name, patch(getattr(verify, name)))
    broken = check()
    assert not broken.passed
    assert broken.detail.startswith(f"AssertionError: {failure} at ("), broken.detail


# invariant -> (the input the refusal must name, a call with it empty)
EMPTY = {
    "orbit_residuals": ("params", lambda: verify.orbit_residuals([], range(1, 3))),
    "orbit_residuals-lengths": ("lengths", lambda: verify.orbit_residuals([P18], range(3, 3))),
    "genuine_return": ("params", lambda: verify.genuine_return([], range(1, 3))),
    "genuine_return-lengths": ("lengths", lambda: verify.genuine_return([P18], range(0))),
    "orbit_equivalence": ("params", lambda: verify.orbit_equivalence([], range(1, 3), 10)),
    "orbit_equivalence-periods": (
        "periods", lambda: verify.orbit_equivalence([P18], range(1, 1), 10)),
    "trapped_orbits": ("params", lambda: verify.trapped_orbits([])),
    "cone_sweep": ("params", lambda: verify.cone_sweep([])),
    "r_bounds": ("params", lambda: verify.r_bounds([], C_RL, C_RU)),
    "u_bounds": ("params", lambda: verify.u_bounds([], 0.5, SLOPE_C)),
    "ladders": ("params", lambda: verify.ladders([], 8)),
    "ladders-m_max": ("m_max", lambda: verify.ladders([P18], 2)),
    "order_laws": ("corpus", lambda: verify.order_laws([])),
    "forcing_sweep-count": ("count", lambda: verify.forcing_sweep(4, 0)),
    "forcing_sweep-m_max": ("m_max", lambda: verify.forcing_sweep(3, 5)),
    "monotone_coding": ("pairs", lambda: verify.monotone_coding(1.83, [])),
}


@pytest.mark.parametrize("case", sorted(EMPTY))
def test_invariant_refuses_input_that_checks_nothing(case):
    # each of these used to pass ("0 ... combinations") or, for
    # orbit_residuals, raise a bare ValueError from max()
    name, call = EMPTY[case]
    with pytest.raises(DomainError, match=name):
        call()


def _counting(monkeypatch, name):
    calls = []
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *a: calls.append(a) or original(*a))
    return calls


def test_order_laws_compares_each_ordered_pair_once(monkeypatch):
    # 3,200 -> 1,600 for suite_kneading's 40-itinerary corpus when the laws
    # came to read one table instead of comparing each pair per law
    calls = _counting(monkeypatch, "order_compare")
    verify.order_laws(verify._corpus(random.Random(42), 40))
    assert len(calls) == 40 * 40


def test_kneading_suite_draws_monotone_pairs_on_the_tent_interval(monkeypatch):
    # the pinned summary shows only the pair count, so the draw range is
    # checked here: sorted pairs filling [-0.6, a - 1], inside the tent
    # map's core [-(a - 1)^2, a - 1]
    drawn = []
    monkeypatch.setattr(verify, "monotone_coding", lambda a, pairs: drawn.append((a, pairs)) or "")
    monkeypatch.setattr(verify, "forcing_sweep", lambda *args: "")
    verify.suite_kneading(42)
    [(a, pairs)] = drawn
    assert a == 1.83 and len(pairs) == 300
    assert all(-0.6 <= x <= y <= a - 1.0 for x, y in pairs)
    ends = [v for pair in pairs for v in pair]
    assert min(ends) < -0.58 and max(ends) > a - 1.02


def test_orbit_equivalence_solves_each_word_once(monkeypatch):
    # on suite_orbits' grid: 532 -> 270 (9 parameters x 2 + 4 + 8 + 16
    # words) when the brute points' codings came to be looked up among the
    # formal points already solved instead of being solved again
    grid = []
    monkeypatch.setattr(verify, "orbit_equivalence",
                        lambda *args: grid.append(args) or "")
    verify.suite_orbits(42)
    monkeypatch.undo()
    calls = _counting(monkeypatch, "formal_periodic_point")
    verify.orbit_equivalence(*grid[0])
    assert len(calls) == 270


def test_convergence_suite_kernel_steps(monkeypatch):
    # symbols fed to the two line kernels by suite_convergence(0): the
    # r-bounds, u-bounds, ladders and regions checks.
    # 13,808 (8,748 pushed, 5,060 pulled) -> 3,056 (1,488, 1,568) when each
    # trace and fold ladder came to be swept once, one kernel step a rung,
    # instead of pulling or pushing the whole word again for every rung and
    # restarting u_gap's recursion at m = 2 for every m.  A ladder that is
    # quadratic again in its length fails here.
    steps = {"_push_word": 0, "_pull_word": 0}
    for name in steps:
        kernel = getattr(geometry, name)

        def counted(p, word, *line, kernel=kernel, name=name):
            steps[name] += len(word)
            return kernel(p, word, *line)

        monkeypatch.setattr(geometry, name, counted)
    assert all(check.passed for check in verify.suite_convergence(0))
    assert steps == {"_push_word": 1488, "_pull_word": 1568}


def _counted_solves(monkeypatch, fail=None):
    """The (p, word) of each formal-point solve, counted at symbolic's
    cyclic_orbit binding; the solve of `fail` raises SingularSystemError."""
    solves = []
    cyclic_orbit = symbolic.cyclic_orbit

    def solve(p, word):
        solves.append((p, word))
        if (p, word) == fail:
            raise SingularSystemError(f"pivot below 1e-13 for {word}")
        return cyclic_orbit(p, word)

    monkeypatch.setattr(symbolic, "cyclic_orbit", solve)
    return solves


def test_verify_all_solves_each_formal_point_once(monkeypatch):
    # 2,124 -> 1,000 for `verify all --seed 42` when each suite came to keep
    # the formal points it solved: orbits.residual, orbits.equivalence
    # and orbits.genuine-return had each solved the same words, and
    # kneading.forcing the (+, m, n1) word once per n2; 45 -> 36
    # brute-force point sets when orbits.trapped came to read formal points
    solves = _counted_solves(monkeypatch)
    runs = counted_point_sets(monkeypatch)
    assert all(check.passed for check in verify.run_suite("all", 42))
    assert len(solves) == len(set(solves)) == 1000
    assert len(runs) == len(set(runs)) == 36


def test_verify_orbits_computes_each_point_set_once(monkeypatch):
    # 45 -> 36: orbits.trapped reads the admissible period-3 formal points,
    # the points of the 9 period-3 sets (grid 15) that orbits.equivalence
    # computes among its 9 x 4, instead of computing those sets again
    params = [Params(a, b) for a in (1.7, 2.1, 2.6) for b in (0.0, 0.2, 0.45)]
    runs = counted_point_sets(monkeypatch)
    assert all(check.passed for check in verify.run_suite("orbits", 42))
    assert len(runs) == 36
    assert set(runs) == {(p, period) for p in params for period in range(1, 5)}
    # the same two checks outside a suite's scope compute the same sets
    del runs[:]
    verify.orbit_equivalence(params, range(1, 5), 15)
    verify.trapped_orbits(params)
    assert len(runs) == 36


def test_trapped_orbits_reads_the_period_3_points_of_brute_periodic():
    # at (1.3, 0.1) and (1.6, 0) six of the eight period-3 words are not
    # admissible, and only the two fixed points are brute_periodic's
    params = [Params(1.3, 0.1), Params(1.6, 0.0), P18]
    assert [len(brute_periodic(p, 3, grid_n=15)) for p in params] == [2, 2, 8]
    assert verify.trapped_orbits(params) == "12 periodic points trapped"


def test_each_suite_solves_each_formal_point_once(monkeypatch):
    # orbits 1,386 -> 558 (9 parameters x 62 words), kneading 736 -> 440
    solves = _counted_solves(monkeypatch)
    counts = {}
    for name in verify.SUITES:
        before = len(solves)
        verify.run_suite(name, 42)
        counts[name] = len(solves) - before
    assert counts == {"cones": 0, "orbits": 558, "convergence": 0,
                      "partition": 2, "kneading": 440}


def test_a_suite_keeps_its_formal_points_only_while_it_runs(monkeypatch):
    solves = _counted_solves(monkeypatch)
    verify.run_suite("all", 42)
    verify.run_suite("all", 42)
    assert len(solves) == 2000
    for _ in range(2):
        symbolic.formal_periodic_point(P18, (+1, -1))
    assert len(solves) == 2002


BAD = (Params(2.1, 0.2), (+1, -1, -1))


def test_a_failed_solve_fails_each_check_that_reads_it(monkeypatch):
    solves = _counted_solves(monkeypatch, fail=BAD)
    checks = verify.run_suite("orbits", 42)
    assert [(c.id, c.passed) for c in checks] == [
        ("orbits.residual", False),
        ("orbits.equivalence", False),
        ("orbits.genuine-return", False),
        ("orbits.trapped", False),
    ]
    for check in checks:
        assert check.detail == "SingularSystemError: pivot below 1e-13 for (1, -1, -1)"
    # a solve that raised is not kept: each of the four checks solved it again
    assert solves.count(BAD) == 4
    assert main(["verify", "orbits"]) == 1
    assert solves.count(BAD) == 8


def test_the_solve_once_scope_ends_with_a_suite_that_raised(monkeypatch):
    inside = []

    def broken(seed):
        symbolic.formal_periodic_point(P18, (+1, -1))
        inside.append(dict(symbolic._SOLVED.get()))
        raise RuntimeError("suite broke")

    monkeypatch.setitem(verify.SUITES, "cones", broken)
    with pytest.raises(RuntimeError, match="suite broke"):
        verify.run_suite("cones", 0)
    assert list(inside[0]) == [(P18.a, P18.b, (+1, -1))]
    assert symbolic._SOLVED.get() is None
