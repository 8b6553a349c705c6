"""Renormalization geometry of orientation-preserving Lozi maps.

Periodic orbits by symbolic coding, the stable/unstable strip partition,
border-collision bifurcation curves, and the reversal of the orbit
creation order near the degenerate (tent-map) limit.

Names load on first use: ``_HOMES`` maps each public name to the
submodule that defines it, and the first read of a name imports that
submodule (PEP 562) and keeps the value here.  ``import lozilab`` itself
imports no submodule, and ``__all__`` and ``dir()`` come from the same
table.  The submodules in ``_SUBMODULES`` resolve as attributes too.
"""

import importlib

_HOMES = {
    name: module
    for module, names in {
        "bifurcation": "BifCurve ReversalResult choose_m find_reversal solve_l tangency_a "
                       "trace_curve",
        "core": "MINUS PLUS DomainError Multipliers Params Point RegionError SpectrumError "
                "apply_map fixed_points multipliers",
        "geometry": "BwdLine iterate_line_bwd p_value q_value r_value u_gap u_value",
        "kneading": "Ordering UItinerary forcing_check_tent order_compare",
        "oracle": "OrbitClass OrbitKind brute_periodic classify_orbit cone_check orbit_signs",
        "renorm": "Regime Strip build_partition classify_regime log_coord",
        "symbolic": "FormalPeriodicPoint Itinerary formal_periodic_point format_itinerary "
                    "iota parse_itinerary",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(_HOMES.values()) | {"solvers", "verify"}

__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
