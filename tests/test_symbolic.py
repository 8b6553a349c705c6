import json
import math
import random
import re
from pathlib import Path

import pytest

from lozilab import (
    Params,
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
    apply_branch,
    close,
    compose,
    det,
    full_family_examples,
    genuine_iterate,
    newton_step,
    spectral_radius,
)

PARAM_GRID = [Params(a, b) for a in (1.7, 2.1, 2.6, 3.2) for b in (0.0, 0.2, 0.5)]

# repr of formal_periodic_point's point, admissibility and residual for
# every word of length 1-6 at the parameters of brute_periodic_pins.json,
# and for iota(+-1, m, n), m = 4..30, n = 2, 3, at (2, 1e-9) and (1.99, 0);
# written by _formal_pins() before cyclic_orbit's sweep and the
# admissibility's min were rewritten, which left every byte unchanged
RECORDED_FORMAL = Path(__file__).parent / "data" / "formal_point_pins.json"
PIN_WORD_PARAMS = (
    (1.7, 0.0), (1.7, 0.05), (1.7, 0.1), (1.7, 0.2), (2.0, 0.3), (2.3, 0.0), (2.9, 0.6))
PIN_IOTA_PARAMS = ((2.0, 1e-9), (1.99, 0.0))


def _formal_pins():
    """[a, b, word, point, admissibility, residual] per pinned word, the
    last three as repr strings, the word as format_itinerary's text."""
    cases = [
        (a, b, word) for a, b in PIN_WORD_PARAMS for n in range(1, 7) for word in sign_words(n)
    ]
    cases += [
        (a, b, iota(sigma, m, n))
        for a, b in PIN_IOTA_PARAMS
        for m in range(4, 31)
        for n in (2, 3)
        for sigma in (-1, +1)
    ]
    pins = []
    for a, b, word in cases:
        fp = formal_periodic_point(Params(a, b), word)
        pins.append([
            a, b, format_itinerary(word), repr(fp.point), repr(fp.admissibility), repr(fp.residual)
        ])
    return pins


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
    for m, n in ((2.5, 2), (2, 3.0), (True, 2)):
        with pytest.raises(ItineraryError, match="need an integer"):
            iota(+1, m, n)


def test_iota_refuses_a_bool_sigma():
    # True == 1, but it is no symbol, as in the counts m and n
    for sigma in (True, False):
        with pytest.raises(ItineraryError, match=f"sigma must be -1 or \\+1, got {sigma}"):
            iota(sigma, 5, 2)
    assert iota(1.0, 5, 2) == iota(+1, 5, 2) and iota(-1.0, 5, 2) == iota(-1, 5, 2)


def test_formal_point_accepts_float_symbols():
    p = Params(1.8, 0.2)
    assert formal_periodic_point(p, (1.0, -1.0)).point == formal_periodic_point(p, (1, -1)).point


def test_sign_words_refuses_bad_length():
    # -1 and 2.5 raised TypeError inside range()
    for length in (-1, 2.5, 3.0, True):
        with pytest.raises(DomainError, match="need an integer 0 <= length"):
            sign_words(length)
    assert sign_words(0) == [()]
    assert sign_words(1) == [(-1,), (+1,)]


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


@pytest.mark.parametrize("p, word, message", [
    (Params(1.8, 0.2), (), "the empty word has no periodic orbit"),
    # a forward-sweep pivot s a + b al, at the first symbol and later
    (Params(0.0, 0.0), (1,), "orbit system pivot 0.0e+00 at (0.0, 0.0)"),
    (Params(5e-14, 0.0), (-1,), "orbit system pivot -5.0e-14 at (5e-14, 0.0)"),
    (Params(1.0, 1.0), (1, 1), "orbit system pivot 0.0e+00 at (1.0, 1.0)"),
    # the bordering pivot 1 - be - al S that fixes x_{N-1}
    (Params(1.0, 0.0), (-1,), "orbit system pivot 0.0e+00 at (1.0, 0.0)"),
])
def test_cyclic_orbit_singular_messages(p, word, message):
    with pytest.raises(SingularSystemError, match=re.escape(message)):
        cyclic_orbit(p, word)


def test_cyclic_orbit_pivot_at_the_bound_passes():
    # only a pivot below 1e-13 in magnitude is refused
    assert cyclic_orbit(Params(1e-13, 0.0), (1,)) == [(1e-13 - 1.0) / 1e-13 / (1.0 + 1.0 / 1e-13)]


@pytest.mark.parametrize("word, bad", [
    ((2,), 2), ((0,), 0), ((1, -1, 0), 0), ((True, -1), True), ((1, -1, False), False),
])
def test_formal_point_refuses_symbols_outside_plus_minus_one(word, bad):
    with pytest.raises(ItineraryError, match=f"bad symbol {bad} "):
        formal_periodic_point(Params(2.3, 0.1), word)


def test_formal_point_stores_itinerary_as_tuple():
    p = Params(2.3, 0.1)
    from_list = formal_periodic_point(p, [1, -1, -1])
    from_tuple = formal_periodic_point(p, (1, -1, -1))
    assert from_list.itinerary == (1, -1, -1)
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)


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


def test_formal_points_match_recorded_bytes():
    recorded = json.loads(RECORDED_FORMAL.read_text())
    assert len(recorded) == 7 * 126 + 2 * 27 * 2 * 2
    for want, got in zip(recorded, _formal_pins(), strict=True):
        assert got == want, want[:3]
