import math
import random

import pytest

from lozilab import (
    Params,
    apply_branch,
    formal_periodic_point,
    format_itinerary,
    iota,
    multipliers,
    parse_itinerary,
    verify,
)
from lozilab.core import DomainError, cyclic_orbit
from lozilab.symbolic import ItineraryError, SingularSystemError, sign_words

from helpers import (
    affine_apply,
    close,
    compose,
    det,
    full_family_examples,
    genuine_iterate,
    newton_step,
    spectral_radius,
)

PARAM_GRID = [Params(a, b) for a in (1.7, 2.1, 2.6, 3.2) for b in (0.0, 0.2, 0.5)]


def test_parse_format_round_trip():
    word = parse_itinerary("+-++-")
    assert word == (1, -1, 1, 1, -1)
    assert format_itinerary(word) == "+-++-"
    with pytest.raises(ItineraryError):
        parse_itinerary("+0-")
    with pytest.raises(ItineraryError):
        parse_itinerary("")


def test_compose_single_minus_branch():
    A, t = compose(Params(1.8, 0.2), (-1,))
    assert A == pytest.approx((1.8, -0.2, 1.0, 0.0))
    assert t == pytest.approx((0.6, 0.0))


def test_compose_matches_sequential_branches():
    rng = random.Random(11)
    p = Params(1.9, 0.3)
    for word in [(1, -1), (1, 1, -1), (-1, 1, 1, -1, -1)]:
        A, t = compose(p, word)
        for _ in range(3):
            v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = v
            for sigma in word:
                w = apply_branch(p, sigma, w)
            assert close(affine_apply(A, t, v), w, 1e-12)


def test_composition_determinant():
    p = Params(2.2, 0.35)
    for length in (1, 2, 4, 7):
        word = tuple(-1 if i % 2 else 1 for i in range(length))
        assert det(compose(p, word)[0]) == pytest.approx(p.b**length, rel=1e-12)


def test_formal_point_fixed_words():
    for p in PARAM_GRID:
        fp = formal_periodic_point(p, (-1,))
        assert close(fp.point, (-1.0, -1.0), 1e-12)
        assert fp.admissibility == pytest.approx(1.0)
    fp = formal_periodic_point(Params(2.0, 0.0), (1,))
    assert close(fp.point, (1 / 3, 1 / 3), 1e-14)


def test_formal_point_two_cycle_frozen():
    # (+,-) at (1.8, 0.2) solves to the exact rational point (5/13, -1/13)
    fp = formal_periodic_point(Params(1.8, 0.2), (1, -1))
    assert close(fp.point, (5 / 13, -1 / 13), 1e-13)
    assert fp.admissibility == pytest.approx(1 / 13)
    assert fp.hyperbolic
    # repeated, it is the same orbit: a composed-map solve loses it to the
    # lam^N growth of the composition, the cyclic solve does not
    for k in (20, 30, 50):
        fp = formal_periodic_point(Params(1.8, 0.2), (1, -1) * k)
        assert close(fp.point, (5 / 13, -1 / 13), 1e-14), k
        assert abs(fp.admissibility - 1 / 13) <= 1e-14, k
        assert fp.residual <= 1e-15, k


def test_formal_point_agrees_with_one_step_newton():
    rng = random.Random(5)
    grid = [
        Params(b + 1.05 + (4.0 - b - 1.1) * i / 9, b)
        for b in (0.0, 0.2, 0.4, 0.6, 0.8)
        for i in range(10)
    ]
    assert len(grid) == 50
    for p in grid:
        for _ in range(3):
            length = rng.randrange(1, 9)
            word = tuple(rng.choice((-1, 1)) for _ in range(length))
            A, t = compose(p, word)
            fp = formal_periodic_point(p, word)
            for _ in range(20):
                v = (rng.uniform(-5, 5), rng.uniform(-5, 5))
                assert close(newton_step(A, t, v), fp.point, 1e-9)


def test_cyclic_orbit_steps_and_short_words():
    for p, word in full_family_examples(seed=118):
        xs = cyclic_orbit(p, word)
        n = len(word)
        for k, s in enumerate(word):
            lhs = p.b * xs[k - 1] + s * p.a * xs[k] + xs[(k + 1) % n]
            assert abs(lhs - (p.a - p.b - 1.0)) <= 1e-13, (p, n, k)
        if n <= 8:
            root = newton_step(*compose(p, word), (0.0, 0.0))
            assert close((xs[0], xs[-1]), root, 1e-9), (p, word)


def test_formal_residuals_small():
    verify.orbit_residuals(PARAM_GRID, range(1, 7))


def test_admissible_formal_points_are_genuine():
    verify.genuine_return(PARAM_GRID, range(1, 7))


def test_iota_words():
    assert iota(-1, 3, 2) == parse_itinerary("+-++-")
    assert iota(+1, 2, 2) == parse_itinerary("++++")
    for m in range(2, 11):
        for n in range(2, 11):
            assert len(iota(+1, m, n)) == m + n
    with pytest.raises(ItineraryError):
        iota(+1, 1, 3)
    with pytest.raises(ItineraryError):
        iota(-1, 3, 1)


def _spectral_bound_holds(p, word):
    """The composed map's spectral radius is >= lam^len(word) - 1e-9."""
    return spectral_radius(compose(p, word)[0]) >= multipliers(p).lam ** len(word) - 1e-9


def test_spectral_radius_single_branch():
    assert spectral_radius(compose(Params(2.0, 0.0), (-1,))[0]) == pytest.approx(2.0)
    assert _spectral_bound_holds(Params(2.0, 0.0), (-1,))
    assert _spectral_bound_holds(Params(1.8, 0.2), (1, -1))


def test_spectral_lower_bound_sweep():
    rng = random.Random(13)
    for p in PARAM_GRID:
        for _ in range(12):
            length = rng.randrange(1, 9)
            word = tuple(rng.choice((-1, 1)) for _ in range(length))
            assert _spectral_bound_holds(p, word)


def test_saddle_eigenvalue_split():
    for p in PARAM_GRID:
        if p.b == 0.0:
            continue
        mult = multipliers(p)
        for length in range(1, 6):
            for word in sign_words(length):
                A, _ = compose(p, word)
                rho = spectral_radius(A)
                small = abs(det(A)) / rho
                # equality holds for the constant words, so allow roundoff
                assert rho >= mult.lam**length * (1 - 1e-9)
                assert small <= mult.mu**length * (1 + 1e-9)


def test_singular_system_outside_full_region():
    for p, word in [(Params(1.0, 0.0), (-1,)), (Params(1.8, 0.2), ())]:
        with pytest.raises(SingularSystemError):
            formal_periodic_point(p, word)


@pytest.mark.parametrize("word, bad", [((2,), 2), ((0,), 0), ((1, -1, 0), 0)])
def test_formal_point_refuses_symbols_outside_plus_minus_one(word, bad):
    with pytest.raises(ItineraryError, match=f"bad symbol {bad} "):
        formal_periodic_point(Params(2.3, 0.1), word)


def test_overflowing_composition_is_refused():
    # parameters the region checks let through give a non-finite orbit
    with pytest.raises(DomainError, match="overflows"):
        formal_periodic_point(Params(math.nan, 0.0), parse_itinerary("+-++-"))


def test_formal_point_against_genuine_map_composition():
    p = Params(2.4, 0.3)
    word = iota(-1, 4, 2)
    fp = formal_periodic_point(p, word)
    assert fp.residual < 1e-12
    # composition applied through apply_map agrees when admissible
    if fp.admissibility > 0.0:
        assert close(genuine_iterate(p, fp.point, len(word)), fp.point, 1e-10)


def test_formal_point_maps_are_rational_in_parameters():
    # smoothness probe: centred second difference in a stays bounded
    word = (1, -1, -1, 1)
    h = 1e-5
    vals = [formal_periodic_point(Params(2.0 + k * h, 0.2), word).point[0] for k in (-1, 0, 1)]
    second = (vals[0] - 2 * vals[1] + vals[2]) / h**2
    assert abs(second) < 1e3


def test_spectral_radius_complex_pair():
    A, _ = compose(Params(1.05, 0.9), (1, -1))
    if (A[0] + A[3]) ** 2 < 4 * det(A):
        assert spectral_radius(A) == pytest.approx(math.sqrt(det(A)))
