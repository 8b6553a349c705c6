"""Renormalization geometry of orientation-preserving Lozi maps.

Periodic orbits by symbolic coding, the stable/unstable strip partition,
border-collision bifurcation curves, and the reversal of the orbit
creation order near the degenerate (tent-map) limit.
"""

from .bifurcation import (
    BifCurve,
    ReversalResult,
    choose_m,
    find_reversal,
    solve_l,
    tangency_a,
    trace_curve,
)
from .core import (
    MINUS,
    PLUS,
    DomainError,
    Multipliers,
    NonInvertibleError,
    Params,
    Point,
    RegionError,
    SpectrumError,
    apply_branch,
    apply_branch_inverse,
    apply_inverse,
    apply_map,
    fixed_points,
    multipliers,
)
from .geometry import (
    BwdLine,
    iterate_line_bwd,
    p_value,
    q_value,
    r_value,
    u_gap,
    u_value,
)
from .kneading import (
    Ordering,
    UItinerary,
    epsilon,
    forcing_check_tent,
    is_maximum,
    order_compare,
)
from .oracle import (
    OrbitClass,
    OrbitKind,
    brute_periodic,
    classify_orbit,
    cone_check,
    orbit_signs,
)
from .renorm import (
    Regime,
    Strip,
    build_partition,
    classify_regime,
    exists_Cmn,
    log_coord,
    partition_rows,
)
from .symbolic import (
    FormalPeriodicPoint,
    Itinerary,
    formal_periodic_point,
    format_itinerary,
    iota,
    parse_itinerary,
)

__version__ = "0.1.0"
