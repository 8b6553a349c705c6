"""lozilab benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload curve_family --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run times passes over the seeded inputs with the
package unmodified and prints the end-to-end metrics.  With ``--trace 1``
it first times untraced passes, then installs span wrappers (spans.py)
and prints the per-layer metrics.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads, metrics and the layer predictions are described in
BENCHMARK.json and perfbench/predictions.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
SETUP_SAMPLES = 11
MIN_PASSES = 3
# Nominal reference_kernel() time: reported times are scaled to the host
# speed at which the kernel takes this long.  On the 2-core x86-64 VM
# (Python 3.11.7) the benchmark was tuned on it took 2.4 to 4.4 ms,
# depending on the load of other tenants.
REF_NOMINAL_S = 0.004


def _import_package():
    """Import lozilab from this checkout's src/ and nowhere else."""
    if not (SRC / "lozilab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lozilab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lozilab

    if Path(lozilab.__file__).resolve().parent != (SRC / "lozilab").resolve():
        raise SystemExit(f"perfbench: imported lozilab from {lozilab.__file__}, not {SRC}")
    import workloads

    return workloads


# -- timing ---------------------------------------------------------------


def reference_kernel() -> float:
    """Fixed pure-Python work shaped like the package's inner loops (float
    recurrences, calls, tuples) but sharing no code with it."""

    def step(x: float, y: float) -> tuple[float, float]:
        return 1.0 + y - 1.4 * abs(x), 0.3 * x

    x, y = 0.1, 0.1
    for _ in range(20_000):
        x, y = step(x, y)
    return x


class SpeedRef:
    """Speed of the host, from a reference kernel timed before and after
    every unit.

    A shared host runs slower or faster, for seconds or minutes at a time,
    as its neighbours' load changes.  A unit timed between kernel samples
    k and k+1 has its times multiplied by REF_NOMINAL_S over the mean of
    those two samples, that is, scaled to a fixed reference speed, so
    units timed at different moments compare.  The kernel shares no code
    with the program, which can reach it only through process-wide state
    such as the heap the garbage collector walks.  Raw times are printed
    beside the scaled ones.
    """

    def __init__(self) -> None:
        self.wall_s: list[float] = []
        self.cpu_s: list[float] = []

    def sample(self) -> None:
        wall0, cpu0 = perf_counter(), process_time()
        reference_kernel()
        self.cpu_s.append(process_time() - cpu0)
        self.wall_s.append(perf_counter() - wall0)

    @staticmethod
    def scales(samples: list[float], count: int) -> list[float]:
        """Scale of each of the first `count` intervals between samples."""
        return [2.0 * REF_NOMINAL_S / (samples[k] + samples[k + 1]) for k in range(count)]

    def overall_scale(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.wall_s)


class PassLog:
    """Timings and failures of one phase, one record per unit run.

    A pass's time is the sum over its units of each unit's median over the
    passes, so a slow spell that hit a few passes drops out.
    """

    def __init__(self, units: int) -> None:
        self.units = units
        self.passes = 0
        self.pass_wall_s: list[float] = []
        # (unit index, wall s and cpu s of prepare, call and check, call ms),
        # in run order; unit run k sits between speed samples k and k+1
        self.records: list[tuple[int, float, float, float]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.speed = SpeedRef()

    def _scaled(self, field: int, samples: list[float] | None) -> list[list[float]]:
        scales = (SpeedRef.scales(samples, len(self.records)) if samples
                  else [1.0] * len(self.records))
        per_unit: list[list[float]] = [[] for _ in range(self.units)]
        for record, scale in zip(self.records, scales):
            per_unit[record[0]].append(record[field] * scale)
        return per_unit

    def run_s(self, scaled: bool = True) -> float:
        return sum(statistics.median(xs)
                   for xs in self._scaled(1, self.speed.wall_s if scaled else None))

    def cpu_s(self, scaled: bool = True) -> float:
        return sum(statistics.median(xs)
                   for xs in self._scaled(2, self.speed.cpu_s if scaled else None))

    def call_ms(self, scaled: bool = True) -> list[float]:
        """Latency of each unit's program call: its median over the passes."""
        return [statistics.median(xs)
                for xs in self._scaled(3, self.speed.wall_s if scaled else None)]


def run_passes(runner, inputs, seconds, min_passes, log, on_pass=None, on_unit=None,
               tracer=None):
    """Closed loop over the inputs, pass after pass, until the next pass
    would end after `seconds` (and at least `min_passes` passes ran)."""
    begin = perf_counter()
    while True:
        runner.bytes_written = 0
        pass_start = perf_counter()
        for index, unit in enumerate(inputs):
            log.speed.sample()
            wall0, cpu0 = perf_counter(), process_time()
            if tracer is not None:
                with tracer.span("bench.unit", index):
                    error, call_ms = _one_unit(runner, unit)
            else:
                error, call_ms = _one_unit(runner, unit)
            cpu = process_time() - cpu0
            log.records.append((index, perf_counter() - wall0, cpu, call_ms))
            log.attempted += 1
            if error:
                log.failures.append(f"{unit!r}: {error}")
            if on_unit is not None:
                on_unit()
        log.passes += 1
        log.pass_wall_s.append(perf_counter() - pass_start)
        if on_pass is not None:
            on_pass()
        elapsed = perf_counter() - begin
        if log.passes >= min_passes and elapsed + statistics.median(log.pass_wall_s) > seconds:
            log.speed.sample()  # closes the last unit's interval
            return log


def _one_unit(runner, unit) -> tuple[str | None, float]:
    runner.prepare(unit)
    start = perf_counter()
    try:
        output = runner.call(unit)
    except Exception as exc:  # noqa: BLE001 - a failing unit is counted
        return f"{type(exc).__name__}: {exc}", (perf_counter() - start) * 1e3
    call_ms = (perf_counter() - start) * 1e3
    return runner.check(unit, output), call_ms


def tail_pct(base_n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it in
    a sample of `base_n` (never below p50)."""
    return max(50, math.floor(100 * (base_n - 10) / base_n)) if base_n > 10 else 50


def nearest_rank(values: list[float], pct: int) -> float:
    xs = sorted(values)
    return xs[max(1, math.ceil(pct * len(xs) / 100)) - 1]


class SetupProbe:
    """Set-up time: wall time of a fresh process that starts Python, imports
    lozilab and builds the inputs.

    After one warm-up, samples are taken between units of the timed run,
    at most one every `spacing` seconds, and topped up after it to
    SETUP_SAMPLES: this time drifts by up to 1.5x within seconds on a
    shared host, so samples taken back to back share one drift (their
    ten-seed spread was 0.19, against 0.07 spread out).  Each is scaled to
    reference speed by the reference kernel timed inside the probe process
    itself, right after its set-up, because a kernel timed in this process
    does not track the core another process starts on.  The kernel's own
    time is not counted as set-up.
    """

    def __init__(self, workload: str, seed: int, spacing: float) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                    "--workload", workload, "--seed", str(seed), "--seconds", "0"]
        self.spacing = spacing
        self.raw_s: list[float] = []
        self.scaled_s: list[float] = []
        self.take()
        del self.raw_s[0], self.scaled_s[0]  # warm-up

    def take(self) -> None:
        start = perf_counter()
        done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        self.last = perf_counter()
        if done.returncode != 0 or not done.stdout.startswith("inputs "):
            raise SystemExit(f"perfbench: set-up probe failed: {done.stderr.strip()}")
        _, _, kernel_total_s, kernel_s = done.stdout.split()
        setup_s = self.last - start - float(kernel_total_s)
        self.raw_s.append(setup_s)
        self.scaled_s.append(setup_s * REF_NOMINAL_S / float(kernel_s))

    def take_if_due(self) -> None:
        if perf_counter() - self.last >= self.spacing:
            self.take()


def probe_setup(inputs) -> None:
    """The probe process's report: input count, then the total and the
    median time of three reference-kernel runs."""
    times = []
    for _ in range(3):
        start = perf_counter()
        reference_kernel()
        times.append(perf_counter() - start)
    print(f"inputs {len(inputs)} {sum(times)!r} {statistics.median(times)!r}")


# -- reporting --------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_table(title: str, metrics: dict, notes: dict) -> None:
    print(title)
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<8} {note}")


def finish(log: PassLog, metrics: dict) -> int:
    for failure in log.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not log.failures,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": metrics,
    }))
    return 0


def end_to_end(args, runner, inputs) -> int:
    probe = SetupProbe(args.workload, args.seed, args.seconds / SETUP_SAMPLES)
    _one_unit(runner, inputs[0])  # warm-up, untimed and not counted
    log = run_passes(runner, inputs, args.seconds, MIN_PASSES, PassLog(len(inputs)),
                     on_unit=probe.take_if_due)
    while len(probe.raw_s) < SETUP_SAMPLES:
        probe.take()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the tail percentile is the one a pooled sample of every call of the
    # shortest run allowed would give, so it is fixed per workload
    pct = tail_pct(MIN_PASSES * len(inputs))

    def times(scaled: bool) -> dict:
        call_ms = log.call_ms(scaled)
        return {
            "setup_s": metric(statistics.median(probe.scaled_s if scaled else probe.raw_s), "s"),
            "run_s": metric(log.run_s(scaled), "s"),
            "cpu_s": metric(log.cpu_s(scaled), "s"),
            "unit_ms_p50": metric(statistics.median(call_ms), "ms"),
            "unit_ms_tail": metric(nearest_rank(call_ms, pct), "ms"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }

    metrics, raw = times(True), times(False)
    notes = {
        "setup_s": f"median of {len(probe.raw_s)} fresh processes spread over the run",
        "run_s": f"{len(inputs)} units, each its median over {log.passes} passes",
        "cpu_s": "process CPU time, same composition",
        "unit_ms_p50": f"median over the {len(inputs)} units of each unit's median call",
        "unit_ms_tail": f"p{pct} over the same {len(inputs)} unit medians",
    }
    for name in notes:
        notes[name] += f"; raw {raw[name]['value']:.6g}"
    print_table(f"{args.workload} seed {args.seed}: end to end (times at reference "
                f"speed; median host speed factor {log.speed.overall_scale():.4f} from "
                f"{len(log.speed.wall_s)} reference samples)", metrics, notes)
    print(f"  {'fail_frac':<44} {len(log.failures) / log.attempted:>14.6g} "
          f"{'1':<8} {len(log.failures)} of {log.attempted} units failed their check")
    print("raw " + json.dumps(raw))
    return finish(log, metrics)


def traced(args, workloads, runner, inputs) -> int:
    import spans

    plain = run_passes(runner, inputs, args.seconds / 2, 2, PassLog(len(inputs)))
    tracer = spans.Tracer()
    summaries = []
    log = PassLog(len(inputs))
    log.attempted, log.failures = plain.attempted, plain.failures
    span_file = TMP / f"spans-{args.workload}-seed{args.seed}.tsv.gz"

    def summarize() -> None:
        summary = spans.PassSummary(tracer)
        summary.bytes_written = runner.bytes_written
        if not summaries:
            tracer.write(span_file)
        summaries.append(summary)
        tracer.clear()

    tracer.install()
    try:
        anchors = run_anchors(args.workload, workloads, runner, tracer, log)
        run_passes(runner, inputs, args.seconds / 2, 1, log,
                   on_pass=summarize, tracer=tracer)
    finally:
        tracer.uninstall()
    for summary in summaries:
        spans.check_expected(args.workload, summary)
        if summary.counts() != summaries[0].counts():
            raise spans.TraceError("counts differ between traced passes of one run")

    metrics, notes = layer_metrics(summaries, plain, log, inputs)
    for name, got in anchors.items():
        metrics[name] = metric(got, "count")
        if got:
            want = SEED_COMMIT_ANCHORS[name]
            notes[name] = f"seed commit {want}: {'same' if got == want else 'DIFFERS'}"
    print_table(f"{args.workload} seed {args.seed}: per layer "
                f"({len(summaries)} traced passes; counts per pass, ms per pass "
                f"unless named otherwise)", metrics, notes)
    print(f"  spans of the first traced pass: {span_file}")
    return finish(log, metrics)


# Counts of the fixed, unseeded anchor configurations at the commit that
# introduced the benchmark, measured independently of the tracer (ROADMAP
# baseline).  Matching them shows the wrappers see every call.  A later
# change to the solver or the oracle moves them on purpose, so a mismatch
# is reported, not fatal.
SEED_COMMIT_ANCHORS = {
    "anchor.figure1_default.gap_evals": 156_210,
    "anchor.criterion3.brute_calls_total": 425,
    "anchor.criterion3.brute_calls_top": 150,
}


def run_anchors(workload, workloads, runner, tracer, log: PassLog) -> dict[str, int]:
    """Trace the anchor configuration of the workload, if it has one:
    figure1's default family (m 4..14, b_max 0.07, grid 71) for
    curve_family, criterion 3's 25-point grid (periods 1..6, grid_n 20)
    for orbit_oracle.  Returns every anchor count, 0 where not run."""
    import lozilab
    import spans

    counts = dict.fromkeys(SEED_COMMIT_ANCHORS, 0)
    if workload == "curve_family":
        runner.prepare(None)
        with tracer.span("bench.unit", -1):
            rc, _ = workloads.quiet_cli(runner.figure1_argv(4, 14, 0.07))
        error = f"exit code {rc}" if rc else runner.check_figure1_dir(range(4, 15), default_family=True)
        log.attempted += 1
        if error:
            log.failures.append(f"figure1 default family: {error}")
        counts["anchor.figure1_default.gap_evals"] = spans.PassSummary(tracer).count("geometry.p_value")
    elif workload == "orbit_oracle":
        with tracer.span("bench.unit", -1):
            for a in (1.7, 2.0, 2.3, 2.6, 2.9):
                for b in (0.0, 0.15, 0.3, 0.45, 0.6):
                    for period in range(1, 7):
                        lozilab.brute_periodic(lozilab.Params(a, b), period, grid_n=20)
        summary = spans.PassSummary(tracer)
        counts["anchor.criterion3.brute_calls_total"] = summary.count("oracle.brute_periodic")
        counts["anchor.criterion3.brute_calls_top"] = summary.brute_top
    tracer.clear()
    return counts


def layer_metrics(summaries, plain: PassLog, traced: PassLog, inputs) -> tuple[dict, dict]:
    first = summaries[0]
    npass = len(summaries)
    scale = traced.speed.overall_scale()  # times at reference speed, as end to end

    def per_pass_ms(get) -> float:
        return sum(get(s) for s in summaries) / npass * 1e3 * scale

    def incl_ms(name: str) -> float:
        return per_pass_ms(lambda s: s.incl_s.get(name, 0.0))

    def self_ms(name: str) -> float:
        return per_pass_ms(lambda s: s.self_s.get(name, 0.0))

    def share(get) -> float:
        """Mean over passes of a time over the pass's unit spans' time."""
        return sum(get(s) / s.incl_s["bench.unit"] for s in summaries) / npass

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m, notes = {}, {}
    count = first.count
    solves = count("bifurcation.solve_l")
    for phase in ("scan", "bisect", "newton"):
        m[f"solvers.{phase}.gap_evals"] = metric(first.phase_gap_evals[f"solvers.{phase}"], "count")
        m[f"solvers.{phase}.ms"] = metric(incl_ms(f"solvers.{phase}"), "ms")
    m["solvers.hybrid_root.calls"] = metric(count("solvers.hybrid_root"), "count")
    m["solvers.multiple_root_warnings"] = metric(count("solvers.multiple_root_warning"), "count")
    m["solvers.scan.self_share"] = metric(share(lambda s: s.self_s.get("solvers.scan", 0.0)), "ratio")
    notes["solvers.scan.self_share"] = "of the traced units' wall time"

    solve_ms = [x * scale for s in summaries for x in s.solve_ms]
    m["bifurcation.solve_l.calls"] = metric(solves, "count")
    if solve_ms:
        pct = tail_pct(len(solve_ms))
        m["bifurcation.solve_l.ms_p50"] = metric(statistics.median(solve_ms), "ms")
        m["bifurcation.solve_l.ms_tail"] = metric(nearest_rank(solve_ms, pct), "ms")
        notes["bifurcation.solve_l.ms_tail"] = f"p{pct} of {len(solve_ms)} solves"
    else:
        m["bifurcation.solve_l.ms_p50"] = metric(0.0, "ms")
        m["bifurcation.solve_l.ms_tail"] = metric(0.0, "ms")
    p_calls = count("geometry.p_value")
    m["bifurcation.gap_evals"] = metric(p_calls, "count")
    m["bifurcation.gap_evals_per_solve"] = metric(ratio(first.solve_gap_evals, solves), "count")
    m["bifurcation.trace_curve.self_ms"] = metric(self_ms("bifurcation.trace_curve"), "ms")
    crossing = first.solve_gap_evals - first.curve_gap_evals
    m["bifurcation.crossing.gap_evals_share"] = metric(ratio(crossing, first.solve_gap_evals), "ratio")
    notes["bifurcation.crossing.gap_evals_share"] = (
        f"{crossing} crossing of {first.solve_gap_evals} solve_l gap evals")
    m["bifurcation.choose_m.ms"] = metric(incl_ms("bifurcation.choose_m"), "ms")
    m["bifurcation.tangency_a.calls"] = metric(count("bifurcation.tangency_a"), "count")

    m["geometry.p_value.calls"] = metric(p_calls, "count")
    m["geometry.q_value.calls"] = metric(count("geometry.q_value"), "count")
    m["geometry.gap_eval_us"] = metric(
        ratio(self_ms("geometry.p_value") + self_ms("geometry.q_value"), p_calls) * 1e3, "us")
    notes["geometry.gap_eval_us"] = "self time of one p_value and q_value pair"
    m["geometry.word_len_mean"] = metric(ratio(first.word_len_sum, p_calls), "symbols")
    notes["geometry.word_len_mean"] = "mean m + n of the p_value calls"

    m["cli.figure1.self_ms"] = metric(per_pass_ms(lambda s: s.figure1_self_s), "ms")
    m["cli.bytes_written"] = metric(first.bytes_written, "bytes")

    formal = count("symbolic.formal_periodic_point")
    m["symbolic.formal_periodic_point.calls"] = metric(formal, "count")
    m["symbolic.formal_periodic_point.us_mean"] = metric(
        ratio(incl_ms("symbolic.formal_periodic_point"), formal) * 1e3, "us")
    m["symbolic.word_len_max"] = metric(first.formal_len_max, "symbols")

    total = count("oracle.brute_periodic")
    m["oracle.brute_periodic.calls_top"] = metric(first.brute_top, "count")
    m["oracle.brute_periodic.calls_total"] = metric(total, "count")
    m["oracle.brute_periodic.recompute_ratio"] = metric(ratio(total, first.brute_top), "ratio")
    notes["oracle.brute_periodic.recompute_ratio"] = "total over top-level calls"
    for period in range(1, 7):
        times = [x * scale for s in summaries for x in s.brute_ms_by_period.get(period, [])]
        m[f"oracle.brute_periodic.ms.p{period}"] = metric(
            statistics.fmean(times) if times else 0.0, "ms")
        notes[f"oracle.brute_periodic.ms.p{period}"] = f"mean of {len(times)} top-level calls"
    m["oracle.points_found"] = metric(first.points_found, "count")
    m["oracle.classify_orbit.ms"] = metric(incl_ms("oracle.classify_orbit"), "ms")
    m["oracle.cone_check.ms"] = metric(incl_ms("oracle.cone_check"), "ms")

    m["renorm.build_partition.ms"] = metric(incl_ms("renorm.build_partition"), "ms")
    m["renorm.log_coord.calls"] = metric(count("renorm.log_coord"), "count")
    m["kneading.order_compare.calls"] = metric(count("kneading.order_compare"), "count")
    m["kneading.forcing_check_tent.ms"] = metric(incl_ms("kneading.forcing_check_tent"), "ms")
    for suite in ("cones", "orbits", "convergence", "partition", "kneading"):
        m[f"verify.suite_ms.{suite}"] = metric(incl_ms(f"verify.suite.{suite}"), "ms")

    for layer in ("cli", "bifurcation", "solvers", "geometry", "symbolic", "oracle",
                  "renorm", "kneading", "verify", "bench"):
        m[f"self_share.{layer}"] = metric(share(lambda s: s.layer_self_s.get(layer, 0.0)), "ratio")
    notes["self_share.bench"] = "harness: unit loop, output checks"

    traced_ms = traced.run_s() * 1e3
    plain_ms = plain.run_s() * 1e3
    m["trace.pass_ms"] = metric(traced_ms, "ms")
    notes["trace.pass_ms"] = f"{len(inputs)} units, each its median over {npass} traced passes"
    m["trace.overhead_frac"] = metric(traced_ms / plain_ms - 1.0, "ratio")
    notes["trace.overhead_frac"] = (
        f"traced over untraced pass ({plain_ms:.1f} ms, {plain.passes} passes), minus 1")
    return m, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = _import_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    inputs = workloads.make_inputs(args.workload, args.seed)
    if args.probe_setup:
        probe_setup(inputs)
        return 0

    scratch = TMP / f"{args.workload}-{os.getpid()}"
    runner = workloads.Runner(args.workload, scratch)
    try:
        if args.trace:
            import spans

            try:
                return traced(args, workloads, runner, inputs)
            except spans.TraceError as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 3
        return end_to_end(args, runner, inputs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
