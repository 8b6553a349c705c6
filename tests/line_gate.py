"""Line gate: every function-body line of src/lozilab runs under Tier-1.

    PYTHONPATH=src python tests/line_gate.py
    PYTHONPATH=src python tests/line_gate.py --traffic

Runs the Tier-1 suite in this process under a sys.settrace line tracer
and exits 1 if a test fails or if a line of a function, lambda or
comprehension body in src/lozilab/*.py never ran, naming each such
file:line.  Module-level and class-body statements run at import and
are not counted; nor are tests run in fresh interpreters.  Line tables
differ between Python versions, and CI runs this on Python 3.11.  The
file name keeps pytest from collecting it.

--traffic runs, under the same tracer and instead of the suite, the CLI
commands that CI runs and every unit of the four benchmark workloads at
seeds 1-5, through perfbench/workloads.py's own Runner (prepare, call,
check); names each command that did not exit 0, each unit whose call
raised or whose check failed, and each function-body line none of them
ran; and exits 0: a report of the code that only tests reach, not a gate.
"""

import argparse
import contextlib
import inspect
import io
import os
import sys
import tempfile
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "lozilab").glob("*.py"))
TRAFFIC_SEEDS = range(1, 6)
CLI_RUNS = (
    ["figure1"],
    ["figure1", "--m-max", "24", "--grid", "201"],
    ["verify", "all", "--seed", "42"],
    ["partition", "-a", "1.8", "-b", "0.2"],
    ["orbit", "-a", "1.8", "-b", "0.2", "-I", "+-++-"],
)


def body_lines(code: types.CodeType, path: str, out: set) -> None:
    """Add (path, line) for every line of each function nested in `code`."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS:
                out.update((path, line) for *_, line in const.co_lines() if line is not None)
            body_lines(const, path, out)


def traced(run) -> tuple[object, set]:
    """run()'s result and the (path, line) pairs of src/lozilab it ran."""
    ours = {str(src) for src in SOURCES}
    resolved: dict = {}
    ran: set = set()

    def local(frame, event, arg):
        ran.add((resolved[frame.f_code.co_filename], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            path = os.path.realpath(name)
            resolved[name] = path if path in ours else None
        return local(frame, event, arg) if resolved[name] else None

    sys.settrace(tracer)
    try:
        return run(), ran
    finally:
        sys.settrace(None)


def traffic() -> list[str]:
    """Run the CLI commands and the benchmark's units; a line for each
    command that did not exit 0 and each unit that raised or failed its check."""
    from lozilab.cli import main as cli

    # workloads.py imports its sibling reference.py by plain name
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    failed = []
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        for k, argv in enumerate(CLI_RUNS):
            run = argv + (["--out", os.path.join(out, str(k))] if argv[0] != "orbit" else [])
            if cli(run) != 0:
                failed.append(f"exited non-zero: {' '.join(argv)}")
        for workload in workloads.WORKLOADS:
            runner = workloads.Runner(workload, Path(out) / workload)
            for seed in TRAFFIC_SEEDS:
                for unit in workloads.make_inputs(workload, seed):
                    runner.prepare(unit)
                    try:
                        reason = runner.check(unit, runner.call(unit))
                    except Exception as exc:  # noqa: BLE001 - reported, as the benchmark counts it
                        reason = f"{type(exc).__name__}: {exc}"
                    if reason is not None:
                        failed.append(f"failed: {workload} seed {seed} unit {unit!r}: {reason}")
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--traffic", action="store_true",
                        help="report the lines that CLI and benchmark traffic never runs")
    args = parser.parse_args()
    wanted: set = set()
    for src in SOURCES:
        body_lines(compile(src.read_text(), str(src), "exec"), str(src), wanted)
    if args.traffic:
        failed, ran = traced(traffic)
        for line in failed:
            print(line)
    else:
        status, ran = traced(lambda: pytest.main(["-q", str(ROOT / "tests")]))
    unrun = sorted(wanted - ran)
    for path, line in unrun:
        print(f"never run: {os.path.relpath(path, ROOT)}:{line}")
    print(f"{len(wanted) - len(unrun)} of {len(wanted)} function-body lines run")
    if args.traffic:
        return 0
    return 1 if status != 0 or unrun else 0


if __name__ == "__main__":
    sys.exit(main())
