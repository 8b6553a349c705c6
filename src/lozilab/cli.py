"""Command-line front end: orbit reports, curve-family export, partition
export, and the verification suites.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 domain error.
Outputs are deterministic for a fixed configuration and seed.

Only the standard library loads with this module; each command imports its
own layers when it runs, so a process pays only for those, and ``--help``
and argparse usage errors load no layer at all.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from pathlib import Path

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# figure1 bisects each crossing in b to this width, refuses a b* at or below
# it (not resolved) and warns of one below 1e3 times it (known only roughly)
CROSSING_WIDTH = 1e-11

# the keys of verify.SUITES (a test holds the two equal), listed here so
# that building the parser does not import verify
SUITE_NAMES = ("cones", "convergence", "kneading", "orbits", "partition")


def _out_dir(path: str | None) -> Path:
    base = path or os.environ.get("LOZI_LAB_OUT") or "."
    out = Path(base)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_orbit(args: argparse.Namespace) -> int:
    from .core import Params
    from .symbolic import ItineraryError, formal_periodic_point, parse_itinerary

    try:
        itinerary = parse_itinerary(args.itinerary)
    except ItineraryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    p = Params(args.a, args.b)
    if not p.in_full:
        print(f"error: (a, b) = ({p.a}, {p.b}) needs a > b+1 and 0 <= b <= 1",
              file=sys.stderr)
        return EXIT_DOMAIN
    fp = formal_periodic_point(p, itinerary)
    if not fp.residual <= 1e-10:
        print(f"error: step residual {fp.residual:.3e} exceeds 1e-10; the orbit "
              "is beyond float precision at these parameters", file=sys.stderr)
        return EXIT_DOMAIN
    report = {
        "a": p.a,
        "b": p.b,
        "itinerary": args.itinerary,
        "point": [fp.point[0], fp.point[1]],
        "admissibility": fp.admissibility,
        "admissible": fp.admissibility >= 0.0,
        "hyperbolic": fp.hyperbolic,
        "residual": fp.residual,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def _trace_or_skip(m: int, n: int, grid: list[float], tol: float):
    """The traced curve (None if it failed) and its warning notes."""
    from .bifurcation import trace_curve
    from .core import DomainError

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            curve = trace_curve(m, n, grid, tol=tol)
        except DomainError as exc:
            return None, [f"skipped: {exc}"]
    return curve, [str(w.message) for w in caught]


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text("\n".join([header, *rows]) + "\n")


def cmd_figure1(args: argparse.Namespace) -> int:
    if args.grid < 2 or args.m_min > args.m_max or args.b_max <= 0.0 or args.tol <= 0.0:
        print("error: need --grid >= 2, --m-min <= --m-max, --b-max > 0, --tol > 0",
              file=sys.stderr)
        return EXIT_USAGE
    if args.m_max <= min(args.n):
        print(f"error: need --m-max > {min(args.n)}, the smallest --n, got "
              f"{args.m_max}: no curve to trace", file=sys.stderr)
        return EXIT_USAGE
    grid = [args.b_max * i / (args.grid - 1) for i in range(args.grid)]
    if not all(lo < hi for lo, hi in zip(grid, grid[1:])):
        print(f"error: --b-max {args.b_max!r} over --grid {args.grid} points gives "
              "b-grid points that are not strictly increasing", file=sys.stderr)
        return EXIT_USAGE
    # after the usage checks, which need no layer
    from .bifurcation import crossing_gaps, refine_crossing

    out = _out_dir(args.out)
    ns = sorted(set(args.n))
    curves = {}
    for m in range(args.m_min, args.m_max + 1):
        for n in ns:
            curve, notes = _trace_or_skip(m, n, grid, args.tol)
            for note in notes:
                print(f"warning: curve ({m},{n}): {note}", file=sys.stderr)
            if curve is None:  # so that no earlier run's file passes for this run's
                (out / f"curve_m{m}_n{n}.csv").unlink(missing_ok=True)
            else:
                curves[(m, n)] = curve
                points = zip(curve.samples, curve.dadb)
                rows = (f"{m},{n},{b!r},{a!r},{s!r}" for (b, a), s in points)
                _write_csv(out / f"curve_m{m}_n{n}.csv", "m,n,b,a,dadb", rows)

    if not curves or ns != [2, 3]:  # no crossings to write, and no stale ones
        (out / "intersections.json").unlink(missing_ok=True)
    if not curves:
        print(f"error: every curve was skipped; no file written to {out}", file=sys.stderr)
        return EXIT_DOMAIN
    intersections, unresolved = [], []
    if ns == [2, 3]:
        for m in range(args.m_min, args.m_max + 1):
            if (m, 2) not in curves or (m, 3) not in curves:
                continue
            curve2, curve3 = curves[(m, 2)], curves[(m, 3)]
            _, flips = crossing_gaps(curve2, curve3)
            if len(flips) != 1:
                print(f"warning: m={m}: {len(flips)} sign changes of the curve gap",
                      file=sys.stderr)
                continue
            k = flips[0]
            b_star, a_star = refine_crossing(
                curve2, curve3, k, CROSSING_WIDTH, tol=args.tol)
            if b_star <= CROSSING_WIDTH:
                print(f"warning: m={m}: crossing b* = {b_star!r} is not above the "
                      f"refine width {CROSSING_WIDTH!r}; left out", file=sys.stderr)
                unresolved.append(m)
                continue
            if CROSSING_WIDTH > 1e-3 * b_star:
                print(f"warning: m={m}: crossing b* = {b_star!r} is known only to a relative "
                      f"width {CROSSING_WIDTH / b_star:.2g}", file=sys.stderr)
            intersections.append({
                "m": m,
                "b_star": b_star,
                "a_star": a_star,
                "slope2": curve2.dadb[k],
                "slope3": curve3.dadb[k],
            })
        _json_dump(intersections, out / "intersections.json")
    print(f"wrote {len(curves)} curve files and {len(intersections)} intersections to {out}")
    if unresolved:
        print(f"error: crossings below the refine width for m = {unresolved}",
              file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_partition(args: argparse.Namespace) -> int:
    if args.m_max < 2:
        print(f"error: need --m-max >= 2, got {args.m_max}", file=sys.stderr)
        return EXIT_USAGE
    from .core import Params
    from .renorm import build_partition

    strips = build_partition(Params(args.a, args.b), m_max=args.m_max)
    path = _out_dir(args.out) / f"partition_a{args.a!r}_b{args.b!r}.csv"
    rows = (f"{s.label},{s.left.trace!r},{s.right.trace!r}" for s in strips)
    _write_csv(path, "label,left_trace,right_trace", rows)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    checks = run_suite(args.suite, args.seed)
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.id}: {check.detail}")
    summary = {
        "suite": args.suite,
        "seed": args.seed,
        "passed": all(c.passed for c in checks),
        "checks": [
            {"id": c.id, "passed": c.passed, "detail": c.detail} for c in checks
        ],
    }
    if args.out:
        _json_dump(summary, _out_dir(args.out) / f"verify_{args.suite}.json")
    return EXIT_OK if summary["passed"] else EXIT_VERIFY_FAILED


def finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


@functools.cache  # main parses with one parser per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lozi-lab",
        description="Renormalization geometry and bifurcation curves of "
                    "orientation-preserving Lozi maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    orbit = sub.add_parser("orbit", help="formal periodic point report")
    orbit.add_argument("-a", type=finite_float, required=True)
    orbit.add_argument("-b", type=finite_float, required=True)
    orbit.add_argument("-I", "--itinerary", required=True,
                       help="sign word over - and +, e.g. '+-++-'")
    orbit.set_defaults(func=cmd_orbit)

    fig = sub.add_parser("figure1", help="export the curve family and crossings")
    fig.add_argument("--m-min", type=int, default=4)
    fig.add_argument("--m-max", type=int, default=14)
    fig.add_argument("--n", type=int, action="append", choices=(2, 3),
                     help="repeatable; default both 2 and 3")
    fig.add_argument("--b-max", type=finite_float, default=0.07)
    fig.add_argument("--grid", type=int, default=71)
    fig.add_argument("--tol", type=finite_float, default=1e-12,
                     help="root residual tolerance for |p - q|")
    fig.add_argument("--out", default=None, help="output dir (default $LOZI_LAB_OUT or .)")
    fig.set_defaults(func=cmd_figure1)

    part = sub.add_parser("partition", help="export strip traces as CSV")
    part.add_argument("-a", type=finite_float, required=True)
    part.add_argument("-b", type=finite_float, required=True)
    part.add_argument("--m-max", type=int, default=16)
    part.add_argument("--out", default=None)
    part.set_defaults(func=cmd_partition)

    ver = sub.add_parser("verify", help="run an invariant suite")
    ver.add_argument("suite", choices=SUITE_NAMES + ("all",))
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", default=None, help="also write a JSON summary here")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # imported only now, so that --help and usage errors load no layer
    from .core import DomainError

    if args.command == "figure1" and not args.n:
        args.n = [2, 3]
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
