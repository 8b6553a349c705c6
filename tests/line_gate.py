"""Line gate: every function-body line of src/lozilab runs under Tier-1.

    PYTHONPATH=src python tests/line_gate.py

Runs the Tier-1 suite in this process under a sys.settrace line tracer
and exits 1 if a test fails or if a line of a function, lambda or
comprehension body in src/lozilab/*.py never ran, naming each such
file:line.  Module-level and class-body statements run at import and
are not counted; nor are tests run in fresh interpreters.  Line tables
differ between Python versions, and CI runs this on Python 3.11.  The
file name keeps pytest from collecting it.
"""

import inspect
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "lozilab").glob("*.py"))


def body_lines(code: types.CodeType, path: str, out: set) -> None:
    """Add (path, line) for every line of each function nested in `code`."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS:
                out.update((path, line) for *_, line in const.co_lines() if line is not None)
            body_lines(const, path, out)


def main() -> int:
    wanted: set = set()
    for src in SOURCES:
        body_lines(compile(src.read_text(), str(src), "exec"), str(src), wanted)
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
        status = pytest.main(["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    unrun = sorted(wanted - ran)
    for path, line in unrun:
        print(f"never run: {os.path.relpath(path, ROOT)}:{line}")
    print(f"{len(wanted) - len(unrun)} of {len(wanted)} function-body lines run")
    return 1 if status != 0 or unrun else 0


if __name__ == "__main__":
    sys.exit(main())
