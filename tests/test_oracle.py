import dataclasses
import json
import math
import random
import re
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
from lozilab import oracle, symbolic, verify
from lozilab.core import DomainError, RegionError, SingularSystemError
from lozilab.oracle import BudgetError

from helpers import (
    border_parameters, close, counted_point_sets, full_budget_newton, genuine_iterate,
    reference_brute_periodic, reference_classify_orbit, reference_cone_check,
    reference_ray_check, seed_evaluation, seed_grid)

P18 = Params(1.8, 0.2)
# repr of every brute_periodic point (periods 1-6, grid 20) at the five
# edge points of the orbit_oracle benchmark and two interior points, as
# returned once the pattern search solves one word per necklace (each
# point within 2e-14 of the earlier union of both searches)
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


def test_brute_periodic_computes_every_call_inside_a_solve_once_scope(monkeypatch):
    # the point set depends on (p, period, grid_n) alone, and no scope keeps it
    runs = counted_point_sets(monkeypatch)
    with symbolic._solve_once():
        first = brute_periodic(P18, 3, grid_n=15)
        again = brute_periodic(P18, 3, grid_n=15)
        assert again == first and again is not first
        assert runs == [(P18, 3), (P18, 3)]
        assert symbolic._SOLVED.get() == {}
        with pytest.raises(DomainError, match=r"need an integer 1 <= period <= 10, got 3\.0"):
            brute_periodic(P18, 3.0, grid_n=15)
        with pytest.raises(DomainError, match=r"need an integer 2 <= grid_n, got 15\.0"):
            brute_periodic(P18, 3, grid_n=15.0)
        with pytest.raises(RegionError):
            brute_periodic(Params(1.2, 0.2), 3, grid_n=15)
    # the refusals computed nothing
    assert runs == [(P18, 3), (P18, 3)]


def test_pattern_search_alone_finds_every_orbit(monkeypatch):
    # the result is the pattern search: with the grid's Newton switched
    # off and a 2 x 2 grid, it finds every point
    params = (P18, Params(2.4, 0.4), Params(1.9, 0.0))
    full = {(p, n): brute_periodic(p, n, grid_n=20) for p in params for n in range(1, 7)}
    monkeypatch.setattr(oracle, "_return_map_newton", lambda p, seed, period, image, jac: None)
    for (p, period), points in full.items():
        alone = brute_periodic(p, period, grid_n=2)
        assert len(alone) == len(points), (p, period)
        assert all(close(u, v, 1e-12) for u, v in zip(alone, points)), (p, period)


def test_pattern_search_keeps_border_collision_orbit(monkeypatch):
    # one ulp below the golden ratio, rounding puts x = 0 of the superstable
    # period-3 orbit 0 -> 0.618 -> -0.382 -> 0 on the wrong side in both
    # sign patterns that share it; the tie rule keeps the orbit
    p = Params(1.6180339887498947, 0.0)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_return_map_newton", lambda p, seed, period, image, jac: None)
        points = brute_periodic(p, 3, grid_n=20)
    assert len(points) == 5
    assert any(close(v, (0.0, -0.3819660112501051), 1e-12) for v in points)
    # without the tie the orbit is missed, and the grid Newton root on it
    # raises instead of joining the result
    monkeypatch.setattr(oracle, "_TIE", 0.0)
    with pytest.raises(DomainError, match=r"grid Newton root \(.*\) of period 3 at \(1.61"):
        brute_periodic(p, 3, grid_n=20)


def test_brute_periodic_at_border_collisions():
    # nothing raises, and the orbit whose point sits at x = 0 is found
    for p, word in border_parameters(16):
        points = brute_periodic(p, len(word), grid_n=8)
        assert repr(points) == repr(reference_brute_periodic(p, len(word), 8)), (p, word)
        assert any(close(formal_periodic_point(p, word).point, v, 1e-7) for v in points)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 14: brute_periodic merges points within 1e-7, so at (1.204, 0.2) "
    "it returns 10 period-6 points for 16 admissible codings; two of the formal "
    "points are 2.44e-8 apart, and the 6 rotations of +++++- get no point"))
def test_one_brute_point_per_admissible_coding():
    # the paper's first result: admissible codings and periodic orbits correspond one to one
    p = Params(1.204, 0.2)
    admissible = [w for w in symbolic.sign_words(6)
                  if formal_periodic_point(p, w).admissibility >= 0.0]
    codings = [orbit_signs(p, v, 6) for v in brute_periodic(p, 6, grid_n=20)]
    assert sorted(codings) == sorted(admissible)


def test_brute_equivalence_with_admissible_formal():
    verify.orbit_equivalence((P18, Params(2.4, 0.4), Params(1.9, 0.0)), range(1, 5), 20)


def test_brute_periodic_matches_recorded_bytes():
    recorded = json.loads(RECORDED_BRUTE.read_text())
    grid_n = recorded["grid_n"]
    # the pins go by parameter with periods ascending; replayed backwards,
    # each shorter period restarts the seed coding from the lattice
    for case in recorded["cases"] + recorded["cases"][::-1]:
        points = brute_periodic(Params(case["a"], case["b"]), case["period"], grid_n=grid_n)
        assert [repr(v) for v in points] == case["points"], (case["a"], case["b"], case["period"])


def test_newton_cycle_exit_equals_full_budget():
    cycled = 0
    for a, b in ((1.7, 0.0), (1.7, 0.2), (2.3, 0.0), (2.9, 0.6)):
        p = Params(a, b)
        for period in range(1, 7):
            for seed in seed_grid(20):
                iterates = []
                want = full_budget_newton(p, seed, period, iterates)
                first = seed_evaluation(p, seed, period)
                assert oracle._return_map_newton(p, seed, period, *first) == want, (
                    a, b, period, seed)
                cycled += len(set(iterates)) < len(iterates)
    # the exit is exercised: some seeds repeat an iterate within the budget
    assert cycled > 0
    # a slow convergence, from a seed that wanders for 28 steps without
    # repeating, is not cut short
    p, seed, iterates = Params(1.431, 0.0), (-0.19, 1.0), []
    want = full_budget_newton(p, seed, 10, iterates)
    assert want is not None and len(iterates) == len(set(iterates)) == 29
    assert oracle._return_map_newton(p, seed, 10, *seed_evaluation(p, seed, 10)) == want


def test_newton_gives_up_on_a_singular_step():
    # a - b - 1 is 2.8e-16: the all-minus branch has D = J - Id with
    # det -(a - b - 1), and the seed is 0.3 from closing, so no step is taken
    p, seed = Params(1.3000000000000003, 0.3), (-0.5, 0.5)
    assert abs((p.a - 1.0) * -1.0 + p.b) < 1e-14
    assert not close(apply_map(p, seed), seed, 0.29)
    assert oracle._return_map_newton(p, seed, 1, *seed_evaluation(p, seed, 1)) is None


def test_brute_periodic_refuses_a_singular_orbit_system():
    # a - b - 1 = 1e-14 puts a pivot of z_-'s system below 1e-13; skipping
    # that pattern once returned only the + fixed point and missed z_- =
    # (-1, -1), which apply_map maps to itself bit for bit
    p = Params(1.00000000000001, 0.0)
    assert apply_map(p, (-1.0, -1.0)) == (-1.0, -1.0)
    with pytest.raises(SingularSystemError, match=re.escape("orbit system pivot 1.0e-14")):
        brute_periodic(p, 1, grid_n=2)


def _sign_key(p, seed, period):
    """The first `period` orbit signs of `seed` as bits, first sign highest."""
    signs = orbit_signs(p, seed, period)
    return sum(1 << (period - 1 - k) for k, s in enumerate(signs) if s > 0)


def test_seed_keys_equal_per_seed_coding():
    def coded(a, b, grid_n, period):
        return [_sign_key(Params(a, b), seed, period) for seed in seed_grid(grid_n)]

    ascending = [(2.3, 0.3, 20, n) for n in range(1, 9)]
    # a shorter period is cached only when it is one of the last two
    # depths computed; otherwise it steps from the lattice
    descending = [(1.7, 0.0, 20, n) for n in range(8, 0, -1)]
    # two parameters taking turns, each restarting the coding
    interleaved = [(a, b, 15, n) for n in (3, 5, 2, 7) for a, b in ((2.9, 0.6), (1e3, 0.5))]
    # the same parameter on another grid, then back
    regrid = [(2.3, 0.3, g, n) for g, n in ((20, 4), (15, 4), (15, 6), (2, 3), (20, 6))]
    # orbits that overflow, so that x_4 is NaN at every seed
    overflowing = [(1e300, 0.5, 2, n) for n in (4, 5)]
    oracle._seed_orbits.cache_clear()
    for a, b, grid_n, period in ascending + descending + interleaved + regrid + overflowing:
        xs, ys, keys, jacs = oracle._seed_orbits(a, b, grid_n, period)
        if period == 5 and a == 1e300:
            # orbit_signs refuses the NaN x_4; its bit reads minus
            assert keys == [2 * key for key in coded(a, b, grid_n, 4)]
            assert all(math.isnan(x) for x in oracle._seed_orbits(a, b, grid_n, 4)[0])
        else:
            assert keys == coded(a, b, grid_n, period), (a, b, grid_n, period)
        if (a, b, grid_n, period) == ascending[-1]:
            # depths 0..8 computed once each: every seed stepped once per period
            assert oracle._seed_orbits.cache_info()[:2] == (7, 9)
        # each seed's image and its key's Jacobian are the seed's own Newton
        # evaluation, bit for bit, and the keys come in order of first seeds
        evaluations = [seed_evaluation(Params(a, b), v, period) for v in seed_grid(grid_n)]
        assert repr(list(zip(xs, ys))) == repr([image for image, _ in evaluations])
        assert repr([jacs[key] for key in keys]) == repr([jac for _, jac in evaluations])
        assert list(jacs) == list(dict.fromkeys(keys))


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


def test_each_cell_root_equals_full_budget_newton_from_its_first_seed(monkeypatch):
    # every grid Newton run of brute_periodic, from the lattice's first
    # evaluation, returns what Newton from the cell's first seed alone does
    newton, runs = oracle._return_map_newton, []

    def recorded(p, seed, period, image, jac):
        root = newton(p, seed, period, image, jac)
        runs.append((seed, root))
        return root

    monkeypatch.setattr(oracle, "_return_map_newton", recorded)
    for a, b in REFERENCE_POINTS:
        p = Params(a, b)
        for period, grid_n in REFERENCE_RUNS:
            runs.clear()
            try:
                brute_periodic(p, period, grid_n=grid_n)
            except DomainError:
                # the known refusal at large a: the pattern search's z_+
                # fails the forward check, and Newton's does not
                assert (a, b, period) == (1e15, 0.5, 1)
            firsts = {}
            for seed in seed_grid(grid_n):
                firsts.setdefault(_sign_key(p, seed, period), seed)
            assert [seed for seed, _ in runs] == list(firsts.values())[:len(runs)], (
                a, b, period, grid_n)
            for seed, root in runs:
                want = full_budget_newton(p, seed, period, far=math.inf)
                assert repr(root) == repr(want), (a, b, period, grid_n, seed)


@pytest.mark.parametrize("a, b, period, grid_n", [
    # the first seed of the all-minus cell cycles bit for bit near z_-
    # short of Newton's 1e-13 stop; the pattern search has every point
    (2.5763645360439176, 0.4730484171556013, 8, 15),
    # large a, where Newton fails from many seeds
    (1000.0, 0.5, 6, 20),
], ids=["near-z-minus", "large-a"])
def test_brute_periodic_where_grid_newton_fails(a, b, period, grid_n):
    p = Params(a, b)
    points = brute_periodic(p, period, grid_n=grid_n)
    assert repr(points) == repr(reference_brute_periodic(p, period, grid_n))
    if period == 8:
        # every sign pattern has an orbit there
        assert len(points) == 2**period


def test_grid_newton_runs_once_per_sign_cell(monkeypatch):
    inner = oracle._return_map_newton
    seeds = []

    def counted(p, seed, period, image, jac):
        seeds.append(seed)
        # the first evaluation the lattice passes is the seed's own, bit for bit
        assert repr((image, jac)) == repr(seed_evaluation(p, seed, period)), (p, period, seed)
        return inner(p, seed, period, image, jac)

    monkeypatch.setattr(oracle, "_return_map_newton", counted)
    # at (1.7, 0) some first seeds fail at period 6, and are not retried;
    # periods 7 and 8 on the 15 x 15 grid fill most cells with few seeds
    runs = [(p, n, 20) for p in (Params(2.3, 0.3), Params(1.7, 0.0)) for n in range(1, 7)]
    runs += [(Params(2.6, 0.45), period, 15) for period in (7, 8)]
    for p, period, grid_n in runs:
        seeds.clear()
        brute_periodic(p, period, grid_n=grid_n)
        first = {}
        for seed in seed_grid(grid_n):
            first.setdefault(_sign_key(p, seed, period), seed)
        assert seeds == list(first.values()), (p, period, grid_n)


CELL = oracle._CELL


def distinct(roots, accept):
    """oracle._distinct with `accept(root)` in place of its _closes test."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_closes", lambda p, v, period: accept(v))
        return oracle._distinct(None, roots, 0)


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
        kept, cells = distinct([first, second], lambda v: True)
        assert kept == ([first] if merged else [first, second]), (gap, first, second)
        # the index holds exactly the kept points, each under 1, 2 or 4 cells
        assert {q for qs in cells.values() for q in qs} == set(kept)
        assert distinct([second, first], lambda v: True)[0] == (
            [second] if merged else [second, first])
        # a rejected root is not indexed, so it hides nothing
        assert distinct([first, second], lambda v: v != first)[0] == [second]
        # exact repeats of a kept, a merged or a rejected root change nothing
        repeated = [first, second, first, second, second, first]
        for accept, want in ((lambda v: True, kept), (lambda v: v != first, [second])):
            assert distinct(repeated, accept)[0] == want
    if axes == (1, 1):
        # a point on a corner is filed under the four cells that meet
        # there, and found from each of them
        corner = (edge, edge)
        cells = distinct([corner], lambda v: True)[1]
        assert sum(corner in qs for qs in cells.values()) == 4
        for gap, found in ((0.99e-7, True), (1.01e-7, False)):
            probes = [(edge + sx * gap, edge + sy * gap) for sx in (-1, 1) for sy in (-1, 1)]
            assert len({(u // CELL, v // CELL) for u, v in probes}) == 4
            for u, v in probes:
                assert oracle._near_kept(cells, u, v) is found, (gap, u, v)


def test_distinct_equals_pairwise_dedup():
    # roots clustered within 3e-7 of cell edges and corners, at several
    # magnitudes, against a dedup that compares every pair
    rng = random.Random(36)
    roots = []
    for scale in (1e-3, 1.7, 1e3, 1e8):
        for _ in range(60):
            # an edge on each axis near +-scale, or a free axis
            edge = [(round(s * scale / CELL) * CELL if rng.random() < 0.8 else s * scale)
                    for s in (rng.choice((-1, 1)), rng.choice((-1, 1)))]
            for _ in range(rng.randint(1, 6)):
                roots.append(tuple(e + rng.uniform(-3e-7, 3e-7) for e in edge))
    roots += [(0.0, 0.0), (-0.0, 5e-8), (5e-8, -0.0), (math.nan, 0.0), (0.0, math.inf),
              (-math.inf, -math.inf), (math.nan, math.nan), (1e300, 1e300), (1e300, 1e300)]
    rng.shuffle(roots)
    # a duplicate of every tenth root, so exact repeats occur too
    roots += roots[::10]
    rejected = set(roots[::7])
    for accept in (lambda v: True, lambda v: v not in rejected):
        want = []
        for v in roots:
            if not any(close(v, q, 1e-7) for q in want) and accept(v):
                want.append(v)
        kept, cells = distinct(roots, accept)
        assert kept == want
        for v in roots[::4]:
            for gap in (0.99e-7, 1.01e-7):
                for probe in ((v[0] + gap, v[1]), (v[0], v[1] - gap), (v[0] - gap, v[1] + gap)):
                    assert oracle._near_kept(cells, *probe) is any(
                        close(probe, q, 1e-7) for q in kept), (v, probe)


@pytest.mark.parametrize("axes", [(1, 0), (0, 1), (1, 1)])
def test_grid_check_looks_roots_up_across_cell_edges(axes, monkeypatch):
    # the kept point at z_- = (-1, -1) sits at the top of its cell (-1.0 //
    # CELL is -1000001), so a step up by either gap crosses into the next
    p, period = Params(2.3, 0.3), 3
    points = brute_periodic(p, period, grid_n=20)
    z = points[0]
    assert close(z, (-1.0, -1.0), 1e-15)
    for gap, missed in ((0.99e-7, False), (1.01e-7, True)):
        root = (z[0] + gap * axes[0], z[1] + gap * axes[1])
        for k in range(2):
            if axes[k]:
                assert root[k] // CELL != z[k] // CELL
        monkeypatch.setattr(oracle, "_return_map_newton", lambda p, seed, period, image, jac: root)
        if missed:
            with pytest.raises(DomainError, match=re.escape(
                    f"grid Newton root {root!r} of period 3 at (2.3, 0.3) is not a point")):
                brute_periodic(p, period, grid_n=20)
        else:
            assert brute_periodic(p, period, grid_n=20) == points


def test_dedup_non_finite_roots_do_not_raise():
    roots = [(math.nan, 0.0), (math.inf, 1.0), (0.5, -math.inf), (0.5, 0.5), (0.5, 0.5)]
    assert distinct(roots, lambda v: math.isfinite(v[0] + v[1]))[0] == [(0.5, 0.5)]
    assert len(distinct(roots, lambda v: True)[0]) == 4


def test_dedup_signed_zero_repeat():
    # -0.0 == 0.0, and both map alike: the first seen is kept, once
    calls = []
    roots = [(-0.0, 0.25), (0.0, 0.25), (0.25, -0.0), (0.25, 0.0)]
    kept = distinct(roots, lambda v: calls.append(v) or True)[0]
    assert kept == calls == [(-0.0, 0.25), (0.25, -0.0)]
    assert math.copysign(1.0, kept[0][0]) == math.copysign(1.0, kept[1][1]) == -1.0


def test_closes_refuses_nan():
    p = Params(2.0, 0.3)
    z = fixed_points(p)[1]
    for period in (1, 2):
        assert oracle._closes(p, z, period) is True
        for v in ((math.nan, z[1]), (z[0], math.nan), (math.nan, math.nan)):
            assert oracle._closes(p, v, period) is False, (v, period)
    # a finite start whose orbit overflows: -inf, -inf, then -inf + inf
    assert oracle._closes(Params(1e308, 0.5), (1e308, 0.0), 3) is False


def _stepper_cases():
    """(p, v) over the full-family region: b = 0 and b > 0, a up to 1e15,
    random starts and, at border collisions, formal points whose orbit
    meets x = 0 within rounding, where a sign turns on the last bit."""
    rng = random.Random(21)
    cases = []
    for b in (0.0, 0.3, 1.0, None, None, None):
        for a in (1e3, 1e15, None, None):
            bb = rng.uniform(0.0, 1.0) if b is None else b
            aa = rng.uniform(bb + 1.001, 4.0) if a is None else a
            for _ in range(5):
                cases.append((Params(aa, bb), (rng.uniform(-2, 2), rng.uniform(-2, 2))))
    for p, word in border_parameters(21):
        cases.append((p, formal_periodic_point(p, word).point))
    return cases


def test_orbit_signs_equal_genuine_iteration():
    for p, v in _stepper_cases():
        want = []
        w = v
        for _ in range(12):
            if not (w[0] >= 0.0 or w[0] < 0.0):
                break
            want.append(+1 if w[0] >= 0.0 else -1)
            w = genuine_iterate(p, w, 1)
        assert orbit_signs(p, v, len(want)) == tuple(want), (p, v)


def test_closes_equals_genuine_iteration():
    # the forward check of a start moved off a periodic point by delta is
    # bisected down to adjacent deltas on either side of its 1e-10 bound:
    # there one ulp of the iterate decides, so both must be stepped alike
    flips = 0
    for p, v in _stepper_cases():
        for period in (1, 2, 3):
            assert oracle._closes(p, v, period) is close(
                genuine_iterate(p, v, period), v, 1e-10), (p, v, period)
        z = fixed_points(p)[1]

        def passes(delta):
            u = (z[0] + delta, z[1])
            return close(genuine_iterate(p, u, 2), u, 1e-10)

        lo, hi = 0.0, 1e-9
        if not passes(lo) or passes(hi):
            continue
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if passes(mid) else (lo, mid)
        for delta, want in ((lo, True), (hi, False)):
            assert oracle._closes(p, (z[0] + delta, z[1]), 2) is want, (p, delta)
        flips += 1
    assert flips >= 50


def test_brute_rejects_bad_inputs():
    with pytest.raises(RegionError):
        brute_periodic(Params(1.1, 0.2), 2, grid_n=10)
    with pytest.raises(DomainError):
        brute_periodic(P18, 11, grid_n=10)
    with pytest.raises(DomainError):
        brute_periodic(P18, 2, grid_n=1)
    # refused as a count, not left to fail inside range()
    for period, grid_n in ((2.0, 20), (2, 20.0), (2.5, 20), (2, 19.5), (True, 20), ("2", 20)):
        with pytest.raises(DomainError, match="need an integer"):
            brute_periodic(Params(2.0, 0.3), period, grid_n)


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
    params = []
    for _ in range(60):
        b = rng.uniform(0.0, 1.0)
        params.append(Params(rng.uniform(b + 1.05, 4.0), b))
    assert verify.cone_sweep(params) == "60 parameters decided at the cone edges"


def test_cone_degenerate_skips_stable_side():
    assert cone_check(Params(2.0, 0.0))


def test_cone_check_skips_the_inverse_side_at_b_zero(monkeypatch):
    # an inverse cone so narrow that the inverse derivatives cannot grow
    # norms by 1/mu = 1000 fails at b > 0, and is never read at b = 0, where
    # only the forward side's rays are tested
    original = oracle.multipliers
    monkeypatch.setattr(oracle, "multipliers",
                        lambda p: dataclasses.replace(original(p), mu=1e-3))
    calls = []
    rays = oracle._rays_hold
    monkeypatch.setattr(oracle, "_rays_hold", lambda *a: calls.append(a) or rays(*a))
    assert not cone_check(P18)
    assert len(calls) == 2
    calls.clear()
    assert cone_check(Params(2.0, 0.0))
    assert calls == [(2.0, 0.0, 1.0, 0.5, 2.0)]


@pytest.mark.parametrize("p", [Params(2.0, 5e-324), Params(1e100, 1e-300), Params(1e150, 1e-180)])
def test_cone_check_refuses_a_stable_multiplier_that_underflows(p):
    # mu = b/lam rounds to 0.0 at b > 0, where 1/mu raised ZeroDivisionError
    assert multipliers(p).mu == 0.0 < p.b
    with pytest.raises(DomainError, match=re.escape(
            f"multiplier mu = b/lam underflows to 0.0 at ({p.a}, {p.b})")):
        cone_check(p)


@pytest.mark.parametrize("p", [Params(1.5e154, 0.5), Params(1.5e154, 0.0), Params(1e300, 1.0)])
def test_cone_check_refuses_an_unstable_multiplier_that_overflows(p):
    # a * a overflows, where lam read inf and the cone test returned False;
    # multipliers itself refuses, and cone_check passes its refusal on
    message = re.escape(f"multiplier lam overflows at ({p.a}, {p.b})")
    with pytest.raises(DomainError, match=message):
        multipliers(p)
    with pytest.raises(DomainError, match=message):
        cone_check(p)


def _cone_cases():
    """100 (p, seed) cases over b in [0, 1] and a in [b + 1.05, 4], every
    tenth at b = 0, where the contracting side is skipped."""
    rng = random.Random(5)
    cases = []
    for k in range(100):
        b = 0.0 if k % 10 == 0 else rng.uniform(0.0, 1.0)
        cases.append((Params(rng.uniform(b + 1.05, 4.0), b), rng.randrange(10**6)))
    return cases


def test_cone_check_equals_reference():
    for p, seed in _cone_cases():
        assert cone_check(p) is reference_cone_check(p, 50, seed) is True


def _sweep_failure_implies_ray_failure(samples):
    """The reference sweep's results on _cone_cases, asserting that
    cone_check fails wherever the sweep does: the rays decide each side on
    the whole cone, so they may also fail where no sample landed."""
    swept = []
    for p, seed in _cone_cases():
        swept.append(reference_cone_check(p, samples, seed))
        assert swept[-1] or not cone_check(p)
    return swept


# The expanding side reads lam alone and the contracting side mu alone,
# so scaling one multiplier can only make its own side fail.
@pytest.mark.parametrize("field, scales", [
    ("lam", (1.001, 1.01, 1.2)),  # inflated: the norms cannot grow by lam
    ("mu", (0.5, 0.99, 2.0, 4.0)),  # 1/mu too large to grow by, or a cone too wide
])
def test_cone_check_failing_side_equals_reference(field, scales, monkeypatch):
    original = oracle.multipliers
    swept = []
    for scale in scales:
        def scaled(p, scale=scale):
            mult = original(p)
            return dataclasses.replace(mult, **{field: getattr(mult, field) * scale})

        monkeypatch.setattr(oracle, "multipliers", scaled)
        swept += _sweep_failure_implies_ray_failure(50)
    assert False in swept and True in swept


# Cones this wide draw b |y| > a |x| forward (lam shrunk) and |x| > a |y|
# inverse (mu grown), where the smaller branch image is |a|x| - b|y|| or
# |a|y| - |x|| / b only through its abs, and some such samples pass.
@pytest.mark.parametrize("field, scale", [("lam", 0.05), ("lam", 0.1), ("mu", 8.0), ("mu", 16.0)])
def test_cone_check_on_a_wide_cone_equals_reference(field, scale, monkeypatch):
    original = oracle.multipliers
    monkeypatch.setattr(oracle, "multipliers", lambda p: dataclasses.replace(
        original(p), **{field: getattr(original(p), field) * scale}))
    swept = _sweep_failure_implies_ray_failure(5)
    assert False in swept and True in swept


# Scalings of one multiplier that move the cone's edges, its growth, or
# both far enough for W's kink, the points W = 1, u = 1 and a convex L2
# vertex to fall inside it
RAY_SCALES = [("lam", s) for s in (0.02, 0.05, 0.1, 0.3, 0.6, 0.9, 1.0, 1.0 + 1e-9, 1.2)] + [
    ("mu", s) for s in (0.5, 1.0 - 1e-9, 1.5, 3.0, 8.0, 16.0, 40.0)]


@pytest.mark.parametrize("field, scale", RAY_SCALES)
def test_cone_check_equals_the_dense_ray_check(field, scale, monkeypatch):
    # the ends and W's kink decide each side exactly: the brute-force
    # check at 401 rays and at every break of every test agrees
    original = oracle.multipliers
    monkeypatch.setattr(oracle, "multipliers", lambda p: dataclasses.replace(
        original(p), **{field: getattr(original(p), field) * scale}))
    results = [cone_check(p) for p, _ in _cone_cases()]
    assert results == [reference_ray_check(p) for p, _ in _cone_cases()]
    if scale == 1.0:
        assert all(results)


def test_cone_test_implies_norm_growth():
    # cone_check tests the cone alone: at a ray (1, u) with 0 <= u <= h =
    # 1/k, an image (W, 1) with W >= k grows the L1, L2 and Linf norms by
    # k, and with W >= k (1 - 1e-15) by the norms' factor k (1 - 1e-12).
    # Growth k over eleven decades; rays at the ends and inside; W at the
    # bound, at k and above it
    rng = random.Random(12)
    for _ in range(20_000):
        k = 10.0 ** rng.uniform(-3.0, 8.0)
        u = rng.choice((0.0, 1.0 / k, rng.uniform(0.0, 1.0 / k)))
        w = rng.choice((k * (1.0 - 1e-15), k, k * rng.uniform(1.0, 3.0)))
        f = k * (1.0 - 1e-12)
        assert w + 1.0 >= f * (1.0 + u), (k, u, w)
        assert w * w + 1.0 >= f * f * (1.0 + u * u), (k, u, w)
        assert max(w, 1.0) >= f * max(1.0, u), (k, u, w)


def _suite_cone_params(monkeypatch):
    """The 200 parameters of the seed-42 cones suite."""
    params = []
    monkeypatch.setattr(verify, "cone_sweep", lambda ps: params.extend(ps) or "")
    verify.suite_cones(42)
    monkeypatch.undo()
    assert len(params) == 200
    return params


def test_cone_check_norm_test_count(monkeypatch):
    # for the true multipliers W's kink lies outside the cone on each
    # checked side, so only the two edge rays run: a/b > 1/lam forward and
    # a > mu inverse; two sides at b > 0, one at b = 0
    params = _suite_cone_params(monkeypatch)
    calls = []
    original = oracle._rays_hold
    monkeypatch.setattr(oracle, "_rays_hold", lambda *a: calls.append(a) or original(*a))
    for p in params + [Params(2.0, 0.0)]:
        calls.clear()
        assert cone_check(p)
        assert len(calls) == (2 if p.b > 0.0 else 1)
        for a, c, d, h, k in calls:
            assert c == 0.0 or not 0.0 <= a / c <= h, (p, c)


# Each edge ray is mapped onto itself and stretched by exactly lam
# (forward) or 1/mu (inverse), so a multiplier moved past its true value
# by 1e-9, or by 1e-11, ten times the 1e-12 slack, fails at the edge
# (the margin is the move times 1 - b/lam^2 >= 0.43 on this grid).
@pytest.mark.parametrize("field, scale", [
    ("lam", 1.0 + 1e-9), ("mu", 1.0 - 1e-9), ("lam", 1.0 + 1e-11), ("mu", 1.0 - 1e-11)])
def test_cone_check_fails_a_multiplier_moved_past_its_value(field, scale, monkeypatch):
    params = _suite_cone_params(monkeypatch)
    assert all(cone_check(p) for p in params)
    original = oracle.multipliers
    monkeypatch.setattr(oracle, "multipliers", lambda p: dataclasses.replace(
        original(p), **{field: getattr(original(p), field) * scale}))
    checked = [p for p in params if field == "lam" or p.b > 0.0]
    assert len(checked) > 190
    assert not any(cone_check(p) for p in checked)


def test_smaller_branch_image_equals_the_magnitude_form():
    # min(|a x - b y|, |-a x - b y|) == |a|x| - b|y||, and inversely
    # min(|-x + a y|, |-x - a y|) == |a|y| - |x||, bit for bit, over the
    # cone draws under the scaled multipliers of the tests above as well
    rng = random.Random(11)
    q_above_p = [0, 0]
    for p, _ in _cone_cases():
        a, b, mult = p.a, p.b, multipliers(p)
        for scale in (0.05, 0.1, 0.5, 0.99, 1.0, 1.001, 1.01, 1.2, 2.0, 4.0, 8.0, 16.0):
            lam, mu = mult.lam * scale, mult.mu * scale
            for _ in range(20):
                x = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
                y = rng.uniform(-abs(x) / lam, abs(x) / lam)
                assert min(abs(a * x - b * y), abs(-a * x - b * y)) == abs(a * abs(x) - b * abs(y))
                y2 = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
                x2 = rng.uniform(-mu * abs(y2), mu * abs(y2))
                assert min(abs(-x2 + a * y2), abs(-x2 - a * y2)) == abs(a * abs(y2) - abs(x2))
                q_above_p[0] += b * abs(y) > a * abs(x)
                q_above_p[1] += abs(x2) > a * abs(y2)
    # on both sides the abs in the magnitude form is needed
    assert min(q_above_p) > 0


def test_trapping_triangle_edges_at_p18():
    mult = multipliers(P18)
    # the stable line chi crosses the x-axis at mu - 1: left of it by more
    # than the margin is the escape wedge, right of it the triangle
    left = classify_orbit(P18, (mult.mu - 1.0 - 1e-9, 0.0))
    assert left.kind is OrbitKind.ESCAPES_MINUS_INFINITY and left.witness == 0
    right = classify_orbit(P18, (mult.mu - 1.0 + 1e-9, 0.0))
    assert right.kind is OrbitKind.TRAPPED and right.witness == 0
    # the vertex (lam - 1, 0), where phi1 and phi2 meet, is in the triangle
    vertex = classify_orbit(P18, (mult.lam - 1.0, 0.0))
    assert vertex.kind is OrbitKind.TRAPPED and vertex.witness == 0
    # the triangle closes in the second quadrant
    assert mult.lam / P18.b - 1.0 > (mult.lam - 1.0) / (P18.a + mult.mu)


def test_trapping_triangle_closes_in_the_full_family():
    # chi meets the y-axis at j = lam/b - 1 >= lam - 1, above phi2's
    # k = (lam - 1)/(a + mu), as b <= 1 and a + mu > 1, so classify_orbit
    # needs no refusal of a triangle that fails to close.  b = 1, b down to
    # the least float, a up to the float after b + 1
    rng = random.Random(31)
    count = 0
    for i in range(4000):
        b = (1.0, 5e-324, 10.0 ** rng.uniform(-300.0, -1.0), rng.uniform(0.0, 1.0))[i % 4]
        a = (math.nextafter(b + 1.0, math.inf), b + 1.0 + 10.0 ** rng.uniform(-15.0, 0.0),
             rng.uniform(b + 1.0, 4.0), 4.0)[i // 4 % 4]
        p = Params(a, b)
        if not p.in_full:
            continue
        mult = multipliers(p)
        assert mult.lam / b - 1.0 > (mult.lam - 1.0) / (a + mult.mu), p
        count += 1
    assert count > 3900


def _classify_outcome(classify, p, v, max_iter):
    """(kind, witness), or the refusal's type, message and last point."""
    try:
        result = classify(p, v, max_iter)
    except DomainError as exc:
        return type(exc), str(exc), repr(getattr(exc, "last_point", None))
    return result.kind, result.witness


def test_classify_orbit_matches_the_trapping_lines_reference():
    # b = 0, b = 1, b within 1e-2 of 1 and uniform b; a in (b + 1, 4], and
    # in every 40th draw below b + 1, outside the full family.  Starts on
    # [-1, 1]^2 or at x = 0 high up, on a side of the triangle moved out by
    # the 1e-12 margin and then by 0 or up to 1e-10 (chi, phi1, phi2), on
    # [-3, 3]^2, and over 12 decades (one in twenty of these not finite)
    rng = random.Random(30)
    seen = set()
    for k in range(2800):
        b = (0.0, 1.0, 1.0 - 10.0 ** rng.uniform(-12.0, -2.0), rng.uniform(0.0, 1.0))[k % 4]
        a = rng.uniform(b, b + 1.0) if k % 40 == 39 else rng.uniform(b + 1.0, 4.0)
        p = Params(a, b)
        mult = multipliers(p if p.in_full else P18)
        x, y = rng.uniform(-1.0, mult.lam - 1.0), rng.uniform(-1.0, 1.0)
        shift = rng.choice((-1.0, 0.0, 1.0)) * 10.0 ** rng.uniform(-18.0, -10.0)
        kind = k % 7
        if kind == 0:
            v = (rng.uniform(-1.0, 1.0), y) if k % 2 else (0.0, 10.0 ** rng.uniform(0.0, 4.0))
        elif kind == 1:
            v = (mult.mu * (y + 1.0) - 1.0 - 1e-12 + shift, y)
        elif kind == 2:
            v = (x, (x + 1.0) / mult.lam - 1.0 - 1e-12 + shift)
        elif kind == 3:
            v = (x, -1.0 / (a + mult.mu) * (x - (mult.lam - 1.0)) + 1e-12 + shift)
        elif kind == 4:
            v = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        elif k % 70 == 5:
            v = rng.choice(((math.nan, y), (y, math.inf), (-math.inf, y)))
        else:
            scale = 10.0 ** rng.uniform(0.0, 12.0)
            v = (scale * rng.uniform(-1.0, 1.0), scale * rng.uniform(-1.0, 1.0))
        max_iter = (0, 1, 100_000)[k % 3]
        got = _classify_outcome(classify_orbit, p, v, max_iter)
        assert repr(got) == repr(_classify_outcome(reference_classify_orbit, p, v, max_iter)), (
            p, v, max_iter)
        if isinstance(got[0], OrbitKind):
            seen.add(got[0] if got[1] == 0 else (got[0], "late"))
        else:
            seen.add(got[0].__name__)
    # every outcome is reached, and each kind also after the start point
    assert set(seen) == {
        OrbitKind.ESCAPES_MINUS_INFINITY, OrbitKind.TRAPPED, "BudgetError", "RegionError",
        "DomainError", (OrbitKind.ESCAPES_MINUS_INFINITY, "late"), (OrbitKind.TRAPPED, "late")}


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


def test_classify_refuses_non_finite_start_and_bad_budget():
    # a NaN orbit fails every certificate and would spend the whole budget
    for v in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, -math.inf)):
        with pytest.raises(DomainError, match="not finite"):
            classify_orbit(Params(2.0, 0.3), v)
    for max_iter in (-1, 2.5, 10.0, True, None):
        with pytest.raises(DomainError, match="need an integer 0 <= max_iter"):
            classify_orbit(P18, (0.3, 0.3), max_iter=max_iter)
    # a budget of 0 still looks at the start point
    assert classify_orbit(P18, (-10.0, -10.0), max_iter=0).witness == 0


def test_orbit_signs_refuses_bad_length():
    for length in (-3, 2.5, 3.0, True, None):
        with pytest.raises(DomainError, match="need an integer 0 <= length"):
            orbit_signs(P18, (0.1, 0.2), length)
    assert orbit_signs(P18, (0.1, 0.2), 0) == ()
    assert orbit_signs(P18, (0.1, 0.2), 1) == (1,)


def test_orbit_signs_refuses_nan():
    # NaN has no sign: it coded as -1 at the start or anywhere later
    with pytest.raises(DomainError, match="no sign"):
        orbit_signs(P18, (math.nan, 0.0), 3)
    # a NaN y reaches x after one step; at b = 0, 0 * inf is NaN
    assert orbit_signs(P18, (0.1, math.nan), 1) == (1,)
    for p, v in ((P18, (0.1, math.nan)), (Params(2.0, 0.0), (math.inf, math.inf))):
        with pytest.raises(DomainError, match="no sign"):
            orbit_signs(p, v, 3)
    # a finite start whose x steps to -inf, -inf, then -inf + inf = NaN
    p, v = Params(1e308, 0.5), (1e308, 0.0)
    assert orbit_signs(p, v, 3) == (1, -1, -1)
    with pytest.raises(DomainError, match=r"the orbit meets \(nan, -inf\), whose x has no sign"):
        orbit_signs(p, v, 4)


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
