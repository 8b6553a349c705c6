"""Command-line front end: orbit reports, curve-family export, partition
export, and the verification suites.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 domain error.
Outputs are deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path

from .bifurcation import crossing_gaps, refine_crossing, trace_curve
from .core import DomainError, Params
from .renorm import build_partition, partition_rows
from .solvers import BracketError
from .symbolic import ItineraryError, formal_periodic_point, parse_itinerary
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _out_dir(path: str | None) -> Path:
    base = path or os.environ.get("LOZI_LAB_OUT") or "."
    out = Path(base)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_orbit(args: argparse.Namespace) -> int:
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            curve = trace_curve(m, n, grid, tol=tol)
        except (BracketError, DomainError) as exc:
            return None, [f"skipped: {exc}"]
    return curve, [str(w.message) for w in caught]


def _write_curve_csv(curve, path: Path) -> None:
    lines = ["m,n,b,a,dadb"]
    for (b, a), slope in zip(curve.samples, curve.dadb):
        lines.append(f"{curve.m},{curve.n},{b!r},{a!r},{slope!r}")
    path.write_text("\n".join(lines) + "\n")


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
    out = _out_dir(args.out)
    ns = sorted(set(args.n))
    curves = {}
    for m in range(args.m_min, args.m_max + 1):
        for n in ns:
            curve, notes = _trace_or_skip(m, n, grid, args.tol)
            for note in notes:
                print(f"warning: curve ({m},{n}): {note}", file=sys.stderr)
            if curve is not None:
                curves[(m, n)] = curve
                _write_curve_csv(curve, out / f"curve_m{m}_n{n}.csv")

    intersections = []
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
            b_star, a_star = refine_crossing(curve2, curve3, k, 1e-11, tol=args.tol)
            intersections.append({
                "m": m,
                "b_star": b_star,
                "a_star": a_star,
                "slope2": curve2.dadb[k],
                "slope3": curve3.dadb[k],
            })
        _json_dump(intersections, out / "intersections.json")
    print(f"wrote {len(curves)} curve files and {len(intersections)} intersections to {out}")
    return EXIT_OK


def cmd_partition(args: argparse.Namespace) -> int:
    p = Params(args.a, args.b)
    try:
        strips = build_partition(p, m_max=args.m_max)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    out = _out_dir(args.out)
    path = out / f"partition_a{args.a!r}_b{args.b!r}.csv"
    lines = ["label,left_trace,right_trace"]
    for label, left, right in partition_rows(strips):
        lines.append(f"{label},{left!r},{right!r}")
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        checks = run_suite(args.suite, args.seed)
    except KeyError:
        print(f"error: unknown suite {args.suite!r}", file=sys.stderr)
        return EXIT_USAGE
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
    ver.add_argument("suite", choices=sorted(SUITES) + ["all"])
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", default=None, help="also write a JSON summary here")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "figure1" and not args.n:
        args.n = [2, 3]
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
