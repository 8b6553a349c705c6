import math
import random

import pytest

from lozilab import (
    Ordering,
    Params,
    UItinerary,
    forcing_check_tent,
    formal_periodic_point,
    iota,
    order_compare,
    verify,
)
from lozilab.core import DomainError
from lozilab.kneading import UItineraryError, compare_tails

from helpers import epsilon, reference_tent_code, shift


def u(pre, per):
    return UItinerary(tuple(pre), tuple(per))


def test_epsilon_parity():
    assert epsilon(()) == 1
    assert epsilon((1,)) == -1
    assert epsilon((1, -1, 1)) == 1
    with pytest.raises(UItineraryError):
        epsilon((1, 0, -1))


def test_uitinerary_validation():
    with pytest.raises(UItineraryError):
        UItinerary((1,), ())
    with pytest.raises(UItineraryError):
        UItinerary((2,), (1,))
    # bools equal 0 and 1 but are not symbols
    with pytest.raises(UItineraryError, match="bad symbol True"):
        UItinerary((True,), (False, 1))
    with pytest.raises(UItineraryError, match="bad symbol False"):
        UItinerary((), (1, False))


def test_symbols_and_shift():
    seq = u([1, -1], [0, 1, 1])
    assert [seq.symbol(i) for i in range(8)] == [1, -1, 0, 1, 1, 0, 1, 1]
    assert shift(seq, 1).preperiod == (-1,)
    assert shift(seq, 3).period == (1, 1, 0)
    assert [shift(seq, 4).symbol(i) for i in range(4)] == [1, 0, 1, 1]


def test_order_basic_words():
    assert order_compare(u([], [-1]), u([], [1])) is Ordering.LESS
    # after a plus prefix the pointwise order flips
    assert order_compare(u([1], [1]), u([1], [-1])) is Ordering.LESS
    assert order_compare(u([], [1, -1]), u([], [1, -1])) is Ordering.EQUIVALENT


def test_order_zero_equivalence():
    # a shared critical symbol freezes the comparison
    assert order_compare(u([1, 0], [1]), u([1, 0], [-1])) is Ordering.EQUIVALENT
    assert order_compare(u([1], [0, 1]), u([1, 0], [-1, -1])) is Ordering.EQUIVALENT
    # an unshared critical symbol compares like an ordinary value
    assert order_compare(u([], [0]), u([], [1])) is Ordering.LESS
    assert order_compare(u([], [-1]), u([], [0])) is Ordering.LESS


def test_order_needs_full_horizon():
    # differ only after the joint preperiod, inside the combined cycle
    left = u([], [-1, 1, -1, 1, -1, -1])
    right = u([], [-1, 1])
    assert order_compare(left, right) is not Ordering.EQUIVALENT


def test_totality_and_transitivity():
    rng = random.Random(0)
    corpus = []
    for _ in range(36):
        pre = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randrange(0, 4)))
        per = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randrange(1, 7)))
        corpus.append(u(pre, per))
    verify.order_laws(corpus)


def test_shift_monotone_on_cylinders():
    rng = random.Random(1)
    for prefix in [(1,), (1, -1), (-1, 1, 1)]:
        orient = epsilon(prefix)
        pool = []
        for _ in range(25):
            per = tuple(rng.choice((-1, 1)) for _ in range(rng.randrange(1, 6)))
            pool.append(u(prefix + tuple(rng.choice((-1, 1)) for _ in range(2)), per))
        for x in pool:
            for y in pool:
                base = order_compare(x, y)
                if base is Ordering.EQUIVALENT:
                    continue
                shifted = order_compare(shift(x, len(prefix)), shift(y, len(prefix)))
                if orient == 1:
                    assert shifted is base
                else:
                    assert shifted.value == -base.value


def test_coding_map_is_monotone_on_tent_orbits():
    rng = random.Random(2)
    a = 1.83
    lo, hi = -((a - 1.0) ** 2) - 1e-9, (a - 1.0) + 1e-9
    pairs = [sorted((rng.uniform(lo, hi), rng.uniform(lo, hi))) for _ in range(1000)]
    verify.monotone_coding(a, pairs)


@pytest.mark.parametrize("seed", range(10))
def test_lazy_tent_codes_decide_as_full_lists(seed, monkeypatch):
    # monotone_coding compares codings made as they are read; on each of
    # suite_kneading's pairs, either way round, the decision is that of
    # the full 48-symbol lists
    runs = []
    monkeypatch.setattr(verify, "_run", lambda check_id, fn, *args: runs.append((fn, args)))
    verify.suite_kneading(seed)
    [(a, pairs)] = [args for fn, args in runs if fn is verify.monotone_coding]
    decisions = set()
    for x, y in pairs:
        for u, v in ((x, y), (y, x)):
            got = compare_tails(verify._tent_code(a, u, 48), verify._tent_code(a, v, 48))
            assert got is compare_tails(reference_tent_code(a, u, 48), reference_tent_code(a, v, 48))
            decisions.add(got)
    assert {Ordering.LESS, Ordering.GREATER} <= decisions
    assert verify.monotone_coding(a, pairs) == f"300 sampled pairs at a = {a}"


def test_forcing_check_argument_validation():
    with pytest.raises(DomainError):
        forcing_check_tent(1.8, 5, 2, 3)
    with pytest.raises(DomainError):
        forcing_check_tent(2.3, 5, 3, 2)
    # refused as counts, not left to fail inside iota
    for m, n1, n2 in ((5.5, 3, 2), (5, 3.0, 2), (5, 3, 2.5), (5, 3, True)):
        with pytest.raises(DomainError, match="need an integer"):
            forcing_check_tent(1.5, m, n1, n2)


def test_forcing_vacuous_below_creation():
    # small a: the antecedent pair does not exist yet
    assert forcing_check_tent(1.45, 6, 3, 2)
    p = Params(1.45, 0.0)
    assert formal_periodic_point(p, iota(1, 6, 3)).admissibility < 0.0


def test_forcing_holds_with_active_antecedent():
    hits = 0
    for i in range(200):
        a = math.sqrt(2.0) + (2.0 - math.sqrt(2.0)) * (i + 1) / 200
        assert forcing_check_tent(a, 5, 3, 2)
        if formal_periodic_point(Params(a, 0.0), iota(1, 5, 3)).admissibility >= 0:
            hits += 1
    assert hits > 10  # the sweep actually exercises the implication


def test_reversal_contrast_with_two_dimensions(reversal):
    # the degenerate forcing direction breaks for b > 0: past the
    # crossing the (m,3) pair exists while the (m,2) pair does not
    b_bar, result = reversal
    m = result.m
    a2 = result.curve2.samples[-1][1]
    a3 = result.curve3.samples[-1][1]
    assert a3 < a2
    a_mid = 0.5 * (a2 + a3)
    p = Params(a_mid, b_bar)
    assert all(
        formal_periodic_point(p, iota(s, m, 3)).admissibility >= 0.0 for s in (-1, 1)
    )
    assert any(
        formal_periodic_point(p, iota(s, m, 2)).admissibility < 0.0 for s in (-1, 1)
    )
    # while at b = 0 the one-dimensional order holds for every tuple
    for n1, n2 in [(3, 2)]:
        for i in range(50):
            a = math.sqrt(2.0) + (2.0 - math.sqrt(2.0)) * (i + 1) / 50
            assert forcing_check_tent(a, m, n1, n2)
