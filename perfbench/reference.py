"""Reference values for the output checks, kept apart from the code they check.

The checks in workloads.py judge lozilab's answers against two things that
do not run lozilab:

* ``gap(a, b, m, n)``: the fold/pullback gap p_value - q_value, restated
  here with the arithmetic, operation for operation, of lozilab.geometry
  at the commit that introduced the benchmark.  A faster geometry that
  drifts from it shows as a residual above the solver tolerance.
* ``reference.json``: answers of that commit, written by

      python3 perfbench/reference.py

  run from the root of a checkout of that commit.  It holds figure1's
  default family (m 4..14, b_max 0.07, grid 71, tol 1e-12): every
  crossing and the first and last row of every curve; and the crossing
  (b*, a*) of l_{m,2} and l_{m,3} for m 15..26, the strips that
  reversal_deep's b_bar in [4e-8, 1e-4] selects, each refined by
  bisection until b* is resolved to float precision.  A solver that lands
  on another root, or a crossing refiner that stops short, shows as a
  mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REVERSAL_MS = range(15, 27)


def gap(a: float, b: float, m: int, n: int) -> float:
    """p_value - q_value for the return word (+, -^(m-2), +, +, -^(n-2))."""
    word = (1,) + (-1,) * (m - 2) + (1, 1) + (-1,) * (n - 2)
    slope, k = 0.0, 0.0
    for sigma in word:
        denom = b * slope + sigma * a
        slope, k = -1.0 / denom, (a - b - 1.0 - b * k) / denom
    fold = (a - b - 1.0) - b * k
    vslope, c = 0.0, 0.0
    for sigma in reversed(word):
        denom = vslope + sigma * a
        vslope, c = -b / denom, (a - b - 1.0 - c) / denom
    return fold - c


def load() -> dict:
    data = json.loads(REFERENCE_FILE.read_text())
    return {
        "figure1_default": {e["m"]: e for e in data["figure1_default"]},
        "first_row": {(r["m"], r["n"]): r for r in data["first_row"]},
        "last_row": {(r["m"], r["n"]): r for r in data["last_row"]},
        "reversal": {e["m"]: e for e in data["reversal"]},
    }


def _write() -> None:
    """Compute reference.json with the lozilab under ./src."""
    import tempfile

    sys.path.insert(0, str(Path.cwd() / "src"))
    from lozilab import cli
    from lozilab.bifurcation import find_reversal, solve_l

    data: dict[str, list] = {"first_row": [], "last_row": []}
    with tempfile.TemporaryDirectory() as out:
        argv = ["figure1", "--m-min", "4", "--m-max", "14", "--b-max", "0.07",
                "--grid", "71", "--tol", "1e-12", "--out", out]
        if cli.main(argv) != 0:
            raise SystemExit("figure1 failed")
        data["figure1_default"] = json.loads((Path(out) / "intersections.json").read_text())
        for m in range(4, 15):
            for n in (2, 3):
                rows = (Path(out) / f"curve_m{m}_n{n}.csv").read_text().splitlines()[1:]
                for key, row in (("first_row", rows[0]), ("last_row", rows[-1])):
                    _, _, b, a, _ = row.split(",")
                    data[key].append({"m": m, "n": n, "b": float(b), "a": float(a)})

    data["reversal"] = []
    b_bar = 1.6e-4
    for m in REVERSAL_MS:
        result = find_reversal(b_bar, m=m)
        width = max(1e-13, 1e-7 * b_bar)  # find_reversal's stopping width
        lo, hi = result.b_star - width, result.b_star + width
        if not solve_l(lo, m, 2) - solve_l(lo, m, 3) < 0.0 < solve_l(hi, m, 2) - solve_l(hi, m, 3):
            raise SystemExit(f"m={m}: no sign change around b* = {result.b_star}")
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if solve_l(mid, m, 2) - solve_l(mid, m, 3) < 0.0:
                lo = mid
            else:
                hi = mid
        b_star = 0.5 * (lo + hi)
        data["reversal"].append({"m": m, "b_star": b_star, "a_star": solve_l(b_star, m, 2)})
        b_bar = 2.0 * b_star
    REFERENCE_FILE.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")


if __name__ == "__main__":
    _write()
