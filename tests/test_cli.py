import json
from pathlib import Path

import pytest

from lozilab import bifurcation, find_reversal, solvers
from lozilab.cli import main

SMALL_FAMILY = ["figure1", "--m-min", "5", "--m-max", "6", "--b-max", "0.02", "--grid", "9"]
# figure1 files of SMALL_FAMILY as written before the line kernels, the
# crossing refiner and the solver options were merged; they depend on
# IEEE-rounded + - * / and sqrt only, so they hold on every platform
RECORDED_SMALL_FAMILY = Path(__file__).parent / "data" / "figure1_small"
# `verify all --seed 42` as written before the suites were rebuilt on the
# shared invariant functions of lozilab.verify
RECORDED_VERIFY_ALL = Path(__file__).parent / "data" / "verify_all_seed42.json"


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


def test_figure1_gap_evaluation_count(tmp_path, capsys, monkeypatch):
    # deterministic solver-work pin for SMALL_FAMILY: curve solves plus
    # crossing refinement; a change to the solvers updates it on purpose.
    # 10,806 -> 10,350 when newton_polish stopped re-evaluating its start
    # point, its last iterate and the slope at a converged iterate.
    # 10,350 -> 1,427 when the interior curve samples and the crossing
    # solves were warm-started from predicted roots; only the first and
    # last sample of each of the 4 curves scan (no warm start fell back).
    # Each gap evaluation calls both module bindings once: the traced
    # benchmark wraps exactly these two names.
    calls = {"p_value": 0, "q_value": 0, "scan_brackets": 0}

    def counting(module, name):
        f = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(bifurcation, "p_value")
    counting(bifurcation, "q_value")
    counting(solvers, "scan_brackets")
    code, _, _ = run_cli(SMALL_FAMILY + ["--out", str(tmp_path)], capsys)
    assert code == 0
    assert calls == {"p_value": 1427, "q_value": 1427, "scan_brackets": 8}


def test_figure1_skips_failing_curve_with_warning(tmp_path, capsys):
    # m = 3 supports only n = 2; the n = 3 curve is skipped, output stays partial
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


def test_env_var_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOZI_LAB_OUT", str(tmp_path))
    code, _, _ = run_cli(["partition", "-a", "1.8", "-b", "0.2", "--m-max", "3"], capsys)
    assert code == 0
    assert list(tmp_path.glob("partition_*.csv"))
