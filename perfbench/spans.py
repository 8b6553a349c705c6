"""Span tracing for the traced benchmark run.

The tracer wraps public functions of the lozilab modules and records one
span per call: name, start, end, parent span and the benchmark unit that
caused it.  Wrapping patches every module-level binding of the original
function inside the package, so callers that imported a function by name
(``from .geometry import p_value``) and modules that call their own
globals (``solvers.hybrid_root`` -> ``scan_brackets``, the recursion of
``oracle.brute_periodic``) both go through the wrapper.

Nothing in the untraced benchmark imports this module.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import types
import warnings
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, attribute, span name, argument note, result note)
_TARGETS = [
    ("cli", "main", "cli.main", lambda a, kw: float(bool(a) and a[0][:1] == ["figure1"]), None),
    ("bifurcation", "find_reversal", "bifurcation.find_reversal", None, None),
    ("bifurcation", "choose_m", "bifurcation.choose_m", None, None),
    ("bifurcation", "tangency_a", "bifurcation.tangency_a", None, None),
    ("bifurcation", "trace_curve", "bifurcation.trace_curve", None, None),
    ("bifurcation", "solve_l", "bifurcation.solve_l", None, None),
    ("solvers", "hybrid_root", "solvers.hybrid_root", None, None),
    ("solvers", "scan_brackets", "solvers.scan", None, None),
    ("solvers", "bisect", "solvers.bisect", None, None),
    ("solvers", "newton_polish", "solvers.newton", None, None),
    ("geometry", "p_value", "geometry.p_value", lambda a, kw: float(a[1] + a[2]), None),
    ("geometry", "q_value", "geometry.q_value", None, None),
    ("symbolic", "formal_periodic_point", "symbolic.formal_periodic_point",
     lambda a, kw: float(len(a[1])), None),
    ("oracle", "brute_periodic", "oracle.brute_periodic",
     lambda a, kw: float(a[1]), lambda r: float(len(r))),
    ("oracle", "classify_orbit", "oracle.classify_orbit", None, None),
    ("oracle", "cone_check", "oracle.cone_check", None, None),
    ("renorm", "build_partition", "renorm.build_partition", None, None),
    ("renorm", "log_coord", "renorm.log_coord", None, None),
    ("kneading", "order_compare", "kneading.order_compare", None, None),
    ("kneading", "forcing_check_tent", "kneading.forcing_check_tent", None, None),
    ("verify", "run_suite", "verify.run_suite", None, None),
]

WARN_SPAN = "solvers.multiple_root_warning"
SUITE_PREFIX = "verify.suite."

# Spans each workload must record at least once; a zero here means a call
# site moved away from every patched binding, so the run fails instead of
# reporting zeros.
EXPECTED_SPANS = {
    "curve_family": [
        "cli.main", "bifurcation.trace_curve", "bifurcation.solve_l",
        "solvers.hybrid_root", "solvers.scan", "solvers.bisect", "solvers.newton",
        "geometry.p_value", "geometry.q_value",
    ],
    "reversal_deep": [
        "bifurcation.find_reversal", "bifurcation.choose_m", "bifurcation.tangency_a",
        "bifurcation.trace_curve", "bifurcation.solve_l", "solvers.hybrid_root",
        "solvers.scan", "solvers.bisect", "solvers.newton",
        "geometry.p_value", "geometry.q_value", "renorm.log_coord",
    ],
    "orbit_oracle": ["symbolic.formal_periodic_point", "oracle.brute_periodic"],
    "verify_all": [
        "cli.main", "verify.run_suite", "symbolic.formal_periodic_point",
        "oracle.brute_periodic", "oracle.classify_orbit", "oracle.cone_check",
        "renorm.build_partition", "kneading.order_compare",
        "kneading.forcing_check_tent",
    ] + [SUITE_PREFIX + s for s in ("cones", "orbits", "convergence", "partition", "kneading")],
}


class TraceError(RuntimeError):
    """A traced run could not attribute work to the spans it expects."""


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.arg = array("d")
        self.out = array("d")
        self.stack = [-1]
        self.unit_id = -1

    def clear(self) -> None:
        """Drop the stored spans; installed wrappers keep recording."""
        for column in (self.name, self.parent, self.unit, self.start, self.end,
                       self.arg, self.out):
            del column[:]
        self.stack[:] = [-1]
        self.unit_id = -1

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int, arg: float) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.unit.append(self.unit_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.arg.append(arg)
        self.out.append(0.0)
        self.stack.append(idx)
        return idx

    def wrap(self, name, fn, arg_of=None, out_of=None):
        nid = self._nid(name)
        open_, stack, start, end, out = self._open, self.stack, self.start, self.end, self.out

        def traced(*args, **kwargs):
            idx = open_(nid, arg_of(args, kwargs) if arg_of else 0.0)
            start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if out_of:
                out[idx] = out_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str, unit: int):
        self.unit_id = unit
        idx = self._open(self._nid(name), 0.0)
        self.start[idx] = perf_counter()
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.stack.pop()
            self.unit_id = -1

    # -- installing and removing the patches ---------------------------

    def install(self) -> None:
        if self._patches:
            raise TraceError("tracer already installed")
        owners = {name: importlib.import_module("lozilab." + name) for name, *_ in _TARGETS}
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "lozilab" or k.startswith("lozilab.")]
        for mod_name, attr, span, arg_of, out_of in _TARGETS:
            original = getattr(owners[mod_name], attr)
            wrapper = self.wrap(span, original, arg_of, out_of)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        verify = sys.modules["lozilab.verify"]
        for key, fn in list(verify.SUITES.items()):
            self._patch(verify.SUITES, key, self.wrap(SUITE_PREFIX + key, fn))
        self._patch(sys.modules["lozilab.solvers"], "warnings", self._warnings_proxy())

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def _warnings_proxy(self) -> types.SimpleNamespace:
        """Stand-in for ``solvers.warnings`` that marks each warning with a
        zero-length span, then hands it to ``warnings.warn``."""
        nid = self._nid(WARN_SPAN)

        def warn(message, category=None, stacklevel=1, **kwargs):
            idx = self._open(nid, 0.0)
            self.start[idx] = self.end[idx] = perf_counter()
            self.stack.pop()
            warnings.warn(message, category, stacklevel + 1, **kwargs)

        return types.SimpleNamespace(warn=warn)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches = []

    # -- output ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the stored spans as gzipped TSV, times in microseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tunit\tname\tstart_us\tend_us\targ\tout\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.unit[i]}\t{self.names[self.name[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.3f}\t{(self.end[i] - t0) * 1e6:.3f}\t"
                    f"{self.arg[i]:g}\t{self.out[i]:g}\n"
                )


class PassSummary:
    """Counts and times of one traced pass, derived from its spans."""

    def __init__(self, tracer: Tracer):
        names = tracer.names
        n = len(tracer.name)
        name = [names[k] for k in tracer.name]
        parent = tracer.parent
        dur = [e - s for s, e in zip(tracer.start, tracer.end)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        self_t = [d - c for d, c in zip(dur, child)]

        self.calls: dict[str, int] = {}
        self.incl_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        for i in range(n):
            k = name[i]
            self.calls[k] = self.calls.get(k, 0) + 1
            self.incl_s[k] = self.incl_s.get(k, 0.0) + dur[i]
            self.self_s[k] = self.self_s.get(k, 0.0) + self_t[i]
        self.layer_self_s: dict[str, float] = {}
        for k, v in self.self_s.items():
            layer = k.split(".")[0]
            self.layer_self_s[layer] = self.layer_self_s.get(layer, 0.0) + v

        # context flags propagate from parent to child (parents come first)
        phase = [""] * n
        in_curve = [False] * n
        in_brute = [False] * n
        in_solve = [False] * n
        self.phase_gap_evals = {"solvers.scan": 0, "solvers.bisect": 0, "solvers.newton": 0}
        self.curve_gap_evals = 0
        self.solve_gap_evals = 0
        self.word_len_sum = 0.0
        self.solve_ms: list[float] = []
        self.brute_top = 0
        self.brute_ms_by_period: dict[int, list[float]] = {}
        self.points_found = 0
        self.formal_len_max = 0.0
        self.figure1_self_s = 0.0
        for i in range(n):
            k, par = name[i], parent[i]
            if par >= 0:
                phase[i] = phase[par]
                in_curve[i] = in_curve[par]
                in_brute[i] = in_brute[par]
                in_solve[i] = in_solve[par]
            if k in self.phase_gap_evals:
                phase[i] = k
            elif k == "bifurcation.trace_curve":
                in_curve[i] = True
            elif k == "bifurcation.solve_l":
                in_solve[i] = True
                self.solve_ms.append(dur[i] * 1e3)
            elif k == "geometry.p_value":
                self.word_len_sum += tracer.arg[i]
                if phase[i]:
                    self.phase_gap_evals[phase[i]] += 1
                if in_curve[i]:
                    self.curve_gap_evals += 1
                if in_solve[i]:
                    self.solve_gap_evals += 1
            elif k == "oracle.brute_periodic":
                if not in_brute[i]:
                    self.brute_top += 1
                    self.points_found += int(tracer.out[i])
                    period = int(tracer.arg[i])
                    self.brute_ms_by_period.setdefault(period, []).append(dur[i] * 1e3)
                in_brute[i] = True
            elif k == "symbolic.formal_periodic_point":
                self.formal_len_max = max(self.formal_len_max, tracer.arg[i])
            elif k == "cli.main" and tracer.arg[i] == 1.0:
                self.figure1_self_s += self_t[i]

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def counts(self) -> dict:
        """Every machine-independent count of the pass, for comparisons."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "phase_gap_evals": dict(self.phase_gap_evals),
            "curve_gap_evals": self.curve_gap_evals,
            "brute_top": self.brute_top,
            "points_found": self.points_found,
        }


def check_expected(workload: str, summary: PassSummary) -> None:
    missing = [s for s in EXPECTED_SPANS[workload] if summary.count(s) == 0]
    if missing:
        raise TraceError(
            f"{workload}: no calls recorded for {', '.join(missing)}; "
            "a call site no longer goes through a patched binding"
        )
