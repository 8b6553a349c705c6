"""Each invariant of lozilab.verify fails on a broken case, so the suites,
the acceptance criteria and the unit tests that pass through it cannot
pass vacuously."""

import dataclasses
import math

import pytest

from lozilab import OrbitClass, OrbitKind, Ordering, Params, UItinerary, verify
from lozilab.geometry import SLOPE_C

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
    "trapped_orbits": ("classify_orbit",
                       lambda f: lambda p, v: OrbitClass(OrbitKind.ESCAPES_MINUS_INFINITY, 0),
                       lambda: verify.trapped_orbits([P18])),
    "cone_sweep": ("cone_check", lambda f: lambda *a, **k: False,
                   lambda: verify.cone_sweep([(P18, 0)], 10)),
    "r_bounds": (None, None, lambda: verify.r_bounds([P18], 1.0, 1.0)),
    "u_bounds": (None, None, lambda: verify.u_bounds([P18], 100.0, SLOPE_C)),
    # u_inf just above u_right = a - 1
    "ladders": ("u_value",
                lambda f: lambda p, m, side: p.a - 1.0 + 1e-9 if m == math.inf else f(p, m, side),
                lambda: verify.ladders([P18], 4)),
    "dyadic_traces": ("build_partition",
                      lambda f: lambda p, m_max: f(Params(2.0, 1e-3), m_max),
                      verify.dyadic_traces),
    "strip_membership": ("formal_periodic_point",
                         lambda f: lambda p, w: dataclasses.replace(f(p, w), admissibility=-1e-9),
                         lambda: verify.strip_membership(0.2, 3, 2)),
    "order_laws": ("order_compare", lambda f: _rock_paper_scissors,
                   lambda: verify.order_laws(CYCLE)),
    "forcing_sweep": ("forcing_check_tent", lambda f: lambda *a: False,
                      lambda: verify.forcing_sweep(4, 1)),
    # a pair out of order: the coding of 0.5 lies above that of -0.5
    "monotone_coding": (None, None, lambda: verify.monotone_coding(1.83, [(0.5, -0.5)])),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_invariant_fails_on_broken_case(case, monkeypatch):
    name, patch, call = BROKEN[case]
    if name is not None:
        call()  # passes unpatched, so the patch is what breaks it
        monkeypatch.setattr(verify, name, patch(getattr(verify, name)))
    with pytest.raises(AssertionError):
        call()
