import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lozilab
from lozilab import bifurcation, cli, find_reversal, solvers, verify
from lozilab.cli import main

SMALL_FAMILY = ["figure1", "--m-min", "5", "--m-max", "6", "--b-max", "0.02", "--grid", "9"]
# figure1 files of SMALL_FAMILY as written before the line kernels, the
# crossing refiner and the solver options were merged; they depend on
# IEEE-rounded + - * / and sqrt only, so they hold on every platform
RECORDED_SMALL_FAMILY = Path(__file__).parent / "data" / "figure1_small"
# sha256sum lines of the 22 curves and intersections.json of figure1's
# default family, each path under out/
RECORDED_DEFAULT_FAMILY = Path(__file__).parent / "data" / "figure1_default.sha256"
# `verify all --seed 42` as written before the suites were rebuilt on the
# shared invariant functions of lozilab.verify
RECORDED_VERIFY_ALL = Path(__file__).parent / "data" / "verify_all_seed42.json"
# `partition -a 1.8 -b 0.2` at --m-max 12 and 16, and the stdout of
# `orbit -a 1.8 -b 0.2 -I +-++-`, as written before the cone check was
# decided by the cone test alone
RECORDED_PARTITION = {m: Path(__file__).parent / "data" / f"partition_a1.8_b0.2_m{m}.csv"
                      for m in (12, 16)}
RECORDED_ORBIT = Path(__file__).parent / "data" / "orbit_a1.8_b0.2.json"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orbit_report_plus_fixed_point(capsys):
    code, out, _ = run_cli(["orbit", "-a", "2", "-b", "0", "-I", "+"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["point"][0] == pytest.approx(1 / 3, abs=1e-12)
    assert report["admissibility"] == pytest.approx(1 / 3, abs=1e-12)
    assert report["hyperbolic"] is True
    assert report["residual"] < 1e-12


def test_orbit_report_minus_fixed_point(capsys):
    code, out, _ = run_cli(["orbit", "-a", "2", "-b", "0", "-I", "-"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["point"] == [-1.0, -1.0]
    assert report["admissibility"] == pytest.approx(1.0)


def test_orbit_report_return_word(capsys):
    code, out, _ = run_cli(["orbit", "-a", "1.8", "-b", "0.2", "-I", "+-++-"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["residual"] < 1e-10


def test_orbit_report_non_admissible_word(capsys):
    # below the creation curve the formal point has negative admissibility
    code, out, _ = run_cli(["orbit", "-a", "1.45", "-b", "0", "-I", "+-++-"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["admissibility"] < 0.0
    assert report["admissible"] is False and report["hyperbolic"] is False


def test_orbit_parse_failure_exit_code(capsys):
    code, _, err = run_cli(["orbit", "-a", "2", "-b", "0", "-I", "+0-"], capsys)
    assert code == 2 and "error" in err


def test_orbit_out_of_region_exit_code(capsys):
    domain_errors = [
        ["orbit", "-a", "1.1", "-b", "0.3", "-I", "+"],
        ["orbit", "-a", "1e100", "-b", "0.5", "-I", "+-"],  # step residual 1.0
    ]
    for i, args in enumerate(domain_errors):
        code, out, err = run_cli(args, capsys)
        assert code == 3 and "error" in err and out == "", args
        assert i < 1 or "precision" in err, args
    # both were refused while the point came from the composed map: closure
    # residual 0.26 on the long word, an overflowing composition at 1e200
    code, out, _ = run_cli(["orbit", "-a", "1.8", "-b", "0.2", "-I", "+-" * 15], capsys)
    assert code == 0
    report = json.loads(out)
    assert max(abs(u - v) for u, v in zip(report["point"], (5 / 13, -1 / 13))) <= 1e-14
    assert report["admissible"] is True
    code, out, _ = run_cli(["orbit", "-a", "1e200", "-b", "0", "-I", "+-++-"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["point"] == [1.0, -1.0] and report["residual"] == 0.0


def test_usage_error_exit_code(tmp_path, capsys):
    usage_errors = [
        ["orbit", "-a", "2"],
        ["orbit", "-a", "inf", "-b", "0", "-I", "+"],
        ["orbit", "-a", "1.8", "-b", "nan", "-I", "+"],
        ["partition", "-a", "-inf", "-b", "0.2"],
        ["figure1", "--b-max", "nan"],
        ["figure1", "--tol", "inf"],
        ["figure1", "--tol", "0"],
        ["figure1", "--tol", "-1e-12"],
        ["figure1", "--workers", "2"],
        # grid points 0, 0, 5e-324 are not strictly increasing
        ["figure1", "--b-max", "5e-324"],
        # no m in 1..2 has m > n for any n in {2, 3}: no curve to trace
        ["figure1", "--m-min", "1", "--m-max", "2"],
        ["figure1", "--m-min", "3", "--m-max", "3", "--n", "3"],
    ]
    # refused before the output directory is created
    small = ["--m-min", "5", "--m-max", "5", "--grid", "3", "--out", str(tmp_path / "out")]
    for args in usage_errors:
        if args[0] == "figure1":
            args = args[:1] + small + args[1:]
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        assert code == 2, args
    capsys.readouterr()
    assert not list(tmp_path.iterdir())


def test_partition_csv(tmp_path, capsys):
    code, out, _ = run_cli(
        ["partition", "-a", "2", "-b", "0", "--m-max", "5", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    files = list(tmp_path.glob("partition_*.csv"))
    assert len(files) == 1
    lines = files[0].read_text().splitlines()
    assert lines[0] == "label,left_trace,right_trace"
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["B", "C2", "C3", "C4", "C5", "D"]


@pytest.mark.parametrize("m_max", [12, 16])
def test_partition_matches_recorded_bytes(m_max, tmp_path, capsys):
    args = ["partition", "-a", "1.8", "-b", "0.2", "--m-max", str(m_max), "--out", str(tmp_path)]
    code, out, _ = run_cli(args, capsys)
    path = tmp_path / "partition_a1.8_b0.2.csv"
    assert code == 0 and out == f"wrote {path}\n"
    assert path.read_bytes() == RECORDED_PARTITION[m_max].read_bytes()


def test_orbit_matches_recorded_bytes(capsys):
    code, out, _ = run_cli(["orbit", "-a", "1.8", "-b", "0.2", "-I", "+-++-"], capsys)
    assert code == 0
    assert out.encode() == RECORDED_ORBIT.read_bytes()


def test_partition_m_max_below_two_is_a_usage_error(tmp_path, capsys):
    # refused before renorm loads and before the output directory is made
    for m_max in ("1", "0", "-3"):
        args = ["partition", "-a", "1.8", "-b", "0.2", "--m-max", m_max]
        code, out, err = run_cli(args + ["--out", str(tmp_path / "out")], capsys)
        assert code == 2 and out == "", m_max
        assert err == f"error: need --m-max >= 2, got {m_max}\n"
    assert not list(tmp_path.iterdir())
    assert "lozilab.renorm" not in _modules_after_exit(args, 2, tmp_path)


def test_partition_domain_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["partition", "-a", "1.3", "-b", "0.2", "--out", str(tmp_path)], capsys
    )
    assert code == 3 and "error" in err


def test_figure1_small_family(tmp_path, capsys):
    code, out, err = run_cli(
        [
            "figure1",
            "--m-min", "5", "--m-max", "6",
            "--b-max", "0.02", "--grid", "9",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    curve_files = sorted(f.name for f in tmp_path.glob("curve_*.csv"))
    assert curve_files == [
        "curve_m5_n2.csv",
        "curve_m5_n3.csv",
        "curve_m6_n2.csv",
        "curve_m6_n3.csv",
    ]
    header = (tmp_path / "curve_m5_n2.csv").read_text().splitlines()[0]
    assert header == "m,n,b,a,dadb"
    inter = json.loads((tmp_path / "intersections.json").read_text())
    assert [entry["m"] for entry in inter] == [5, 6]
    for entry in inter:
        assert set(entry) == {"m", "b_star", "a_star", "slope2", "slope3"}
        assert entry["slope2"] > entry["slope3"]


def test_figure1_and_reversal_match_recorded_bytes(tmp_path, capsys):
    code, _, _ = run_cli(SMALL_FAMILY + ["--out", str(tmp_path)], capsys)
    assert code == 0
    recorded = sorted(RECORDED_SMALL_FAMILY.iterdir())
    assert sorted(f.name for f in tmp_path.iterdir()) == [f.name for f in recorded]
    for want in recorded:
        assert (tmp_path / want.name).read_bytes() == want.read_bytes(), want.name
    r = find_reversal(1e-5)
    assert repr((r.m, r.b_star, r.a_star, r.slope2, r.slope3)) == (
        "(19, 4.768595695495605e-07, 1.999995469857305, 0.4999983298503707, -0.50003707663393)"
    )


def test_figure1_default_family_matches_recorded_bytes(tmp_path, capsys):
    code, _, _ = run_cli(["figure1", "--out", str(tmp_path)], capsys)
    assert code == 0
    want = dict(line.split()[::-1] for line in RECORDED_DEFAULT_FAMILY.read_text().splitlines())
    assert sorted(f"out/{f.name}" for f in tmp_path.iterdir()) == sorted(want)
    for name, digest in want.items():
        got = hashlib.sha256((tmp_path / name.removeprefix("out/")).read_bytes()).hexdigest()
        assert got == digest, name


def test_figure1_gap_evaluation_count(tmp_path, capsys, monkeypatch):
    # deterministic solver-work pin for SMALL_FAMILY and figure1's default
    # family, whose count the traced benchmark prints as its anchor: curve
    # solves plus crossing refinement; a change to the solvers updates it
    # on purpose.
    # 10,806 -> 10,350 when newton_polish stopped re-evaluating its start
    # point, its last iterate and the slope at a converged iterate.
    # 10,350 -> 1,427 when the interior curve samples and the crossing
    # solves were warm-started from predicted roots; only the first and
    # last sample of each of the 4 curves scan (no warm start fell back).
    # 1,427 -> 1,425 when the crossing solves were predicted by the parabola
    # through the curve's grid samples nearest b instead of the line through
    # the nearest solved b on each side (same roots, same 8 scans).
    # 1,425 -> 847 when the crossing bisection in b was warm-started from a
    # secant prediction of b* (same b* and a*; the cold crossing bisection,
    # pinned below, no longer runs).
    # 847 -> 690 when a warm solve's cell check read Newton's start values
    # (midpoint and slope points) before the cell's ends, and the cold
    # solves after a monotone one-bracket scan took the final cell from
    # predicted_cell instead of bisecting (same roots, same 8 scans; no gap
    # is evaluated inside solvers.bisect any more, counted below).
    # 690 -> 680 when refine_crossing kept the l_{m,2}(b*) that the crossing
    # difference solved instead of solving it again (one warm solve, 5 gap
    # evaluations, for each of the 2 crossings; same b* and a*).
    # 680 -> 674 when one hunt took every predicted root to its final cell:
    # a failed cell moves to a secant root inside the prediction's scan
    # cell, and the guesses from fewer than three samples no longer take a
    # secant step of their own (same roots, same b* and a*, same 8 scans).
    # 674 -> 649 (default family 10,130 -> 9,485) when a hunted cell whose
    # secant root stays in it is confirmed by Newton's first iterate before
    # its end is read (same roots, same b* and a*, same scans).
    # Each gap evaluation calls both module bindings once: the traced
    # benchmark wraps exactly these two names.
    calls = {"p_value": 0, "q_value": 0, "scan_brackets": 0, "bisect": 0}
    gaps_in_bisect = []
    bisect = solvers.bisect

    def bisecting(*args):
        # _tree_cell walks the bisection tree with a sign stub, no gap
        before = calls["p_value"]
        result = bisect(*args)
        gaps_in_bisect.append(calls["p_value"] - before)
        return result

    monkeypatch.setattr(solvers, "bisect", bisecting)

    def counting(module, name):
        f = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(bifurcation, "p_value")
    counting(bifurcation, "q_value")
    counting(solvers, "scan_brackets")
    counting(bifurcation, "bisect")  # refine_crossing's cold fallback only
    # the first and last sample of each curve scan: 4 and 22 curves
    for argv, gaps, scans in ((SMALL_FAMILY, 649, 8), (["figure1"], 9485, 44)):
        calls.update(dict.fromkeys(calls, 0))
        gaps_in_bisect.clear()
        code, _, _ = run_cli(argv + ["--out", str(tmp_path / argv[-1])], capsys)
        assert code == 0
        assert calls == {"p_value": gaps, "q_value": gaps, "scan_brackets": scans, "bisect": 0}
        assert gaps_in_bisect and not any(gaps_in_bisect)


def test_figure1_refuses_crossings_below_the_refine_width(tmp_path, capsys):
    # b* ~ 2^-m / 4: 1.5e-11 at m = 34 is resolved; at m = 35 and 36 the
    # bisection to width 1e-11 ends in [5.2e-12, 1.04e-11] and [0, 5.2e-12]
    code, out, err = run_cli(
        ["figure1", "--m-min", "34", "--m-max", "36", "--grid", "201",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 3
    assert len(list(tmp_path.glob("curve_*.csv"))) == 6
    inter = json.loads((tmp_path / "intersections.json").read_text())
    assert [entry["m"] for entry in inter] == [34]
    assert 1e-11 < inter[0]["b_star"] < 2e-11
    assert "m=35: crossing b* = 7.82310962677002e-12" in err
    assert "m=36: crossing b* = 2.6077032089233402e-12" in err
    assert "wrote 6 curve files and 1 intersections" in out
    # the crossing it keeps is known only to 0.77 of its size, and is flagged
    assert err.count("known only") == 1
    assert ("warning: m=34: crossing b* = 1.3038516044616701e-11 is known only to a "
            "relative width 0.77\n") in err
    # the flag starts above 1e-3: 6.7e-4 at m = 24, the last m of the wide family
    code, _, err = run_cli(
        ["figure1", "--m-min", "24", "--m-max", "25", "--grid", "201",
         "--out", str(tmp_path / "edge")],
        capsys,
    )
    assert code == 0
    assert [entry["m"] for entry in json.loads((tmp_path / "edge" / "intersections.json")
                                            .read_text())] == [24, 25]
    assert err == ("warning: m=25: crossing b* = 7.450208067893983e-09 is known only to a "
                   "relative width 0.0013\n")


def test_figure1_skips_failing_curve_with_warning(tmp_path, capsys):
    # m = 3 supports only n = 2; the n = 3 curve is skipped, output stays partial,
    # and an earlier run's file for the skipped curve is removed
    (tmp_path / "curve_m3_n3.csv").write_text("stale\n")
    code, out, err = run_cli(
        [
            "figure1",
            "--m-min", "3", "--m-max", "3",
            "--b-max", "0.01", "--grid", "5",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert "skipped" in err
    assert [f.name for f in tmp_path.glob("curve_*.csv")] == ["curve_m3_n2.csv"]
    assert json.loads((tmp_path / "intersections.json").read_text()) == []


# every curve of m = 4, 5 fails its residual at a tolerance below rounding
ALL_SKIPPED = ["figure1", "--m-min", "4", "--m-max", "5", "--grid", "11", "--tol", "1e-300"]


def test_figure1_refuses_a_run_that_writes_no_curve(tmp_path, capsys):
    code, out, err = run_cli(ALL_SKIPPED + ["--out", str(tmp_path)], capsys)
    assert code == 3
    assert out == ""
    assert err.count(": skipped: ") == 4
    assert err.endswith(f"error: every curve was skipped; no file written to {tmp_path}\n")
    assert list(tmp_path.iterdir()) == []


def test_figure1_removes_an_earlier_runs_file_for_a_skipped_curve(tmp_path, capsys):
    code, _, _ = run_cli(ALL_SKIPPED[:-2] + ["--m-max", "6", "--out", str(tmp_path)], capsys)
    assert code == 0
    (tmp_path / "notes.txt").write_text("kept\n")
    code, _, _ = run_cli(ALL_SKIPPED + ["--out", str(tmp_path)], capsys)
    assert code == 3
    # m = 6 and notes.txt are files this run never writes
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "curve_m6_n2.csv", "curve_m6_n3.csv", "notes.txt"]


def test_figure1_single_n_removes_an_earlier_runs_crossings(tmp_path, capsys):
    code, _, _ = run_cli(SMALL_FAMILY + ["--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "intersections.json").exists()
    code, out, _ = run_cli(SMALL_FAMILY + ["--n", "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "wrote 2 curve files and 0 intersections" in out
    assert not (tmp_path / "intersections.json").exists()
    # the n = 3 curves are files this run never writes
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        f"curve_m{m}_n{n}.csv" for m in (5, 6) for n in (2, 3)]
    for name in ("curve_m5_n3.csv", "curve_m6_n3.csv"):
        assert (tmp_path / name).read_bytes() == (RECORDED_SMALL_FAMILY / name).read_bytes()


def test_figure1_single_n(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "figure1",
            "--m-min", "5", "--m-max", "5", "--n", "2",
            "--b-max", "0.01", "--grid", "5",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert [f.name for f in tmp_path.glob("curve_*.csv")] == ["curve_m5_n2.csv"]
    assert not (tmp_path / "intersections.json").exists()


def test_figure1_deterministic_output(tmp_path, capsys):
    args = [
        "figure1",
        "--m-min", "5", "--m-max", "5",
        "--b-max", "0.01", "--grid", "5",
    ]
    run_cli(args + ["--out", str(tmp_path / "one")], capsys)
    run_cli(args + ["--out", str(tmp_path / "two")], capsys)
    for name in ("curve_m5_n2.csv", "curve_m5_n3.csv", "intersections.json"):
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "two" / name
        ).read_bytes()


def test_verify_cones_suite(tmp_path, capsys):
    code, out, _ = run_cli(
        ["verify", "cones", "--seed", "42", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert out.startswith("PASS cones.invariance")
    summary = json.loads((tmp_path / "verify_cones.json").read_text())
    assert summary["passed"] is True and summary["seed"] == 42


def test_verify_all_matches_recorded_bytes(tmp_path, capsys):
    code, _, _ = run_cli(["verify", "all", "--seed", "42", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "verify_all.json").read_bytes() == RECORDED_VERIFY_ALL.read_bytes()


def test_verify_deterministic_summary(tmp_path, capsys):
    args = ["verify", "cones", "--seed", "7"]
    run_cli(args + ["--out", str(tmp_path / "one")], capsys)
    run_cli(args + ["--out", str(tmp_path / "two")], capsys)
    assert (tmp_path / "one" / "verify_cones.json").read_bytes() == (
        tmp_path / "two" / "verify_cones.json"
    ).read_bytes()


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "nonsense"])
    assert info.value.code == 2
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err


def test_verify_suite_key_error_is_not_an_unknown_suite(capsys, monkeypatch):
    # argparse refuses unknown suites; a KeyError inside a suite is a bug
    # in that suite, and propagates as one
    def broken(seed):
        raise KeyError("inner")

    monkeypatch.setitem(verify.SUITES, "cones", broken)
    with pytest.raises(KeyError, match="inner"):
        main(["verify", "cones"])
    assert "unknown suite" not in capsys.readouterr().err


def test_env_var_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOZI_LAB_OUT", str(tmp_path))
    code, _, _ = run_cli(["partition", "-a", "1.8", "-b", "0.2", "--m-max", "3"], capsys)
    assert code == 0
    assert list(tmp_path.glob("partition_*.csv"))


# `lozi-lab verify --help` and a bad suite name, as printed at 80 columns
# before the suite names moved into cli
VERIFY_USAGE = """usage: lozi-lab verify [-h] [--seed SEED] [--out OUT]
                       {cones,convergence,kneading,orbits,partition,all}
"""
VERIFY_HELP = VERIFY_USAGE + """
positional arguments:
  {cones,convergence,kneading,orbits,partition,all}

options:
  -h, --help            show this help message and exit
  --seed SEED
  --out OUT             also write a JSON summary here
"""


def test_suite_names_are_those_of_verify(capsys, monkeypatch):
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(["verify", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out == VERIFY_HELP
    with pytest.raises(SystemExit) as info:
        main(["verify", "bogus"])
    assert info.value.code == 2
    assert capsys.readouterr().err == VERIFY_USAGE + (
        "lozi-lab verify: error: argument suite: invalid choice: 'bogus' (choose from "
        "'cones', 'convergence', 'kneading', 'orbits', 'partition', 'all')\n")


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # main parses with one parser per process: an option of one call is not
    # a default of the next, and usage errors and help read as in a fresh
    # process
    assert cli.build_parser() is cli.build_parser()
    code, _, _ = run_cli(SMALL_FAMILY + ["--n", "2", "--out", str(tmp_path / "n2")], capsys)
    assert code == 0
    assert sorted(f.name for f in (tmp_path / "n2").iterdir()) == [
        "curve_m5_n2.csv", "curve_m6_n2.csv"]
    code, _, _ = run_cli(SMALL_FAMILY + ["--out", str(tmp_path / "both")], capsys)
    assert code == 0
    assert sorted(f.name for f in (tmp_path / "both").iterdir()) == sorted(
        f.name for f in RECORDED_SMALL_FAMILY.iterdir())
    with pytest.raises(SystemExit) as info:
        main(["figure1", "--grid", "many"])
    assert info.value.code == 2
    assert "argument --grid: invalid int value: 'many'" in capsys.readouterr().err
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(["verify", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out == VERIFY_HELP


def _fresh_run(*args, cwd=None):
    """Run a new interpreter on this checkout's package."""
    src = str(Path(lozilab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def _fresh_python(*args, cwd=None):
    """Stdout of _fresh_run, or the test fails with its stderr."""
    done = _fresh_run(*args, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _modules_after(code, tmp_path):
    """The lozilab modules a fresh interpreter has loaded after running code."""
    out = _fresh_python("-c", code + "\nimport sys\nprint(*(k for k in sys.modules "
                        "if k.split('.')[0] == 'lozilab'))", cwd=tmp_path)
    return set(out.splitlines()[-1].split())


def _modules_after_exit(argv, code, tmp_path):
    """The lozilab modules loaded once cli.main(argv) has returned or exited
    through argparse with the given exit code."""
    run = (f"from lozilab import cli\ntry:\n    code = cli.main({argv!r})\n"
           f"except SystemExit as exc:\n    code = exc.code\nassert code == {code}, code")
    return _modules_after(run, tmp_path)


def test_each_command_imports_only_its_own_layers(tmp_path):
    base = {"lozilab", "lozilab.cli"}
    assert _modules_after("import lozilab, lozilab.cli", tmp_path) == base
    orbit = "from lozilab import cli; cli.main(['orbit', '-a', '1.8', '-b', '0.2', '-I', '+-'])"
    assert _modules_after(orbit, tmp_path) == base | {"lozilab.core", "lozilab.symbolic"}
    # help and usage errors load no layer
    assert _modules_after_exit(["--help"], 0, tmp_path) == base
    assert _modules_after_exit(["orbit", "-a", "nan", "-b", "0", "-I", "+"], 2, tmp_path) == base
    assert "lozilab.bifurcation" not in _modules_after_exit(["figure1", "--grid", "1"], 2, tmp_path)
    figure1 = "from lozilab import cli; cli.main(['figure1', '--m-max', '6', '--grid', '11'])"
    loaded = _modules_after(figure1, tmp_path)
    assert not loaded & {"lozilab.oracle", "lozilab.verify", "lozilab.kneading"}, loaded
    # a submodule resolves as an attribute without being imported by name
    assert "lozilab.verify" in _modules_after("import lozilab; lozilab.verify.SUITES", tmp_path)


def test_fresh_process_domain_error_exit(tmp_path):
    # main imports DomainError only after parsing; it still catches the error
    done = _fresh_run("-m", "lozilab.cli", "partition", "-a", "1.2", "-b", "0.5", cwd=tmp_path)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "error: (1.2, 0.5) is outside the partition region a > 3b+1\n"


@pytest.mark.parametrize("args", [
    ["orbit", "-a", "1.8", "-b", "0.2", "-I", "+-++-"],
    ["partition", "-a", "1.8", "-b", "0.2", "--out", "."],
    ["figure1", "--m-max", "6", "--grid", "11", "--out", "."],
    ["verify", "kneading"],
], ids=lambda args: args[0])
def test_fresh_process_prints_what_main_prints(args, tmp_path, capsys, monkeypatch):
    fresh = _fresh_python("-m", "lozilab.cli", *args, cwd=tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert fresh == out
