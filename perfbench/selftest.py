"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. BENCHMARK.json and perfbench/predictions.json name the same workloads
   and metrics, and every per-layer metric belongs to exactly one layer.
2. A short untraced run of every workload prints exactly the end-to-end
   metrics, and every unit passes its check.
3. Two short traced runs with the same seed print exactly the per-layer
   metrics and agree on every count.  The anchor counts of curve_family
   and orbit_oracle equal the seed commit's (SEED_COMMIT_ANCHORS in
   run.py), and figure1's default family matches reference.json within
   1e-12; a change that moves them on purpose fails this step, and says
   so.
4. A directory holding only BENCHMARK.json and perfbench/ makes the
   benchmark exit nonzero without printing a result.

Exits 0 when every step passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import SEED_COMMIT_ANCHORS  # noqa: E402

EXACT_UNITS = {"count", "bytes", "symbols"}
SEED = 7
SECONDS = 2.0


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def bench_cmd(bench: dict, workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)]


def result_of(done: subprocess.CompletedProcess, what: str) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"{what}: exit code {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"{what}: {result['failed']} of {result['attempted']} units failed")
    return result


def check_names(bench: dict, pred: dict) -> None:
    workloads = [w["name"] for w in bench["workloads"]]
    if sorted(workloads) != sorted(pred["workloads"]):
        raise AssertionError(f"workloads differ: {workloads} vs {sorted(pred['workloads'])}")
    e2e = {m["name"] for m in bench["end_to_end"]}
    if not e2e <= set(pred["end_to_end"]):
        raise AssertionError(f"end-to-end metrics without a meaning: {e2e - set(pred['end_to_end'])}")
    owners: dict[str, str] = {}
    for layer, spec in pred["layers"].items():
        for name in spec["metrics"]:
            if name in owners:
                raise AssertionError(f"{name} claimed by {owners[name]} and {layer}")
            owners[name] = layer
        for move in spec["moves"]:
            if move["workload"] not in workloads or not set(move["metric"]) <= e2e:
                raise AssertionError(f"{layer}: bad prediction {move}")
        if not set(spec["no_change"]) <= set(workloads):
            raise AssertionError(f"{layer}: unknown workload in no_change")
    per_layer = {m["name"] for m in bench["per_layer"]}
    if per_layer != set(owners):
        raise AssertionError(f"per-layer metrics differ: {sorted(per_layer ^ set(owners))}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pred = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    check_names(bench, pred)
    print("names: ok")

    e2e = [m["name"] for m in bench["end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    per_layer = [m["name"] for m in bench["per_layer"]]
    for workload in [w["name"] for w in bench["workloads"]]:
        plain = result_of(run(bench_cmd(bench, workload, SEED, SECONDS, 0), ROOT),
                          f"{workload} untraced")
        if list(plain["metrics"]) != e2e:
            raise AssertionError(f"{workload}: untraced metrics {list(plain['metrics'])}")
        traced = [
            result_of(run(bench_cmd(bench, workload, SEED, SECONDS, 1), ROOT),
                      f"{workload} traced")
            for _ in range(2)
        ]
        for result in traced:
            if sorted(result["metrics"]) != sorted(per_layer):
                raise AssertionError(f"{workload}: traced metrics differ from BENCHMARK.json")
        for name, m in traced[0]["metrics"].items():
            if m["unit"] != units[name]:
                raise AssertionError(f"{name}: unit {m['unit']}, BENCHMARK.json says {units[name]}")
            if m["unit"] in EXACT_UNITS and m["value"] != traced[1]["metrics"][name]["value"]:
                raise AssertionError(f"{workload}: {name} differs between two traced runs")
        for name, want in SEED_COMMIT_ANCHORS.items():
            got = traced[0]["metrics"][name]["value"]
            if got and got != want:
                raise AssertionError(f"{workload}: {name} = {got}, seed commit counted {want}")
        print(f"{workload}: metric names, units, repeat counts and anchors ok")

    stripped = ROOT / ".bench_tmp" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, stripped / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    workload = bench["workloads"][0]["name"]
    done = run(bench_cmd(bench, workload, 1, 1, 0), stripped)
    shutil.rmtree(stripped)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError("benchmark ran without the package source")
    print(f"without src/: exit code {done.returncode}, nothing printed: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
