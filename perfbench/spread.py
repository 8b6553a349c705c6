"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload orbit_oracle [--workload ...]

Runs the benchmark once per seed 1..10 with tracing off, one run at a
time, with BENCHMARK.json's command and run_seconds, and prints for every
end-to-end metric its median, the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, and the
bound from BENCHMARK.json; a spread of a third of its bound or more is
flagged and makes the exit code 2.  Beside them it prints the median and
spread of the same times unscaled (the run's "raw" line).  Results are
appended as JSON lines to .bench_tmp/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
LOG = ROOT / ".bench_tmp" / "spread.jsonl"


def median_spread(xs: list[float]) -> tuple[float, float]:
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    LOG.parent.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in args.workload:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        raw_values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in SEEDS:
            done = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            raw = json.loads(next(line for line in lines if line.startswith("raw "))[4:])
            with LOG.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result,
                                     "raw": raw}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} units failed", file=sys.stderr)
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
                raw_values[name].append(raw[name]["value"])
        print(f"{workload}: seeds {SEEDS.start}..{SEEDS.stop - 1}")
        for name, xs in values.items():
            med, spread = median_spread(xs)
            raw_med, raw_spread = median_spread(raw_values[name])
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            ok = ok and not flag
            print(f"  {name:<14} median {med:12.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.2f}  raw median {raw_med:12.6g}  "
                  f"raw spread {raw_spread:7.4f}{flag}")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
