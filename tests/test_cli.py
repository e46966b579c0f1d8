import json
import math
import subprocess
import sys

import pytest

from tritoep import build_kernel
from tritoep.cli import _VERIFY_TOLS, main

SQRT2 = math.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_eig_json(self, capsys):
        code, out, _ = run_cli(capsys, "eig", "-a", "1", "-b", "2", "-c", "1",
                               "-n", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["spec"] == {"a": 1.0, "b": 2.0, "c": 1.0, "n": 3,
                               "symmetrisable": True}
        assert doc["result"]["eigenvalues"] == pytest.approx(
            [2 + SQRT2, 2.0, 2 - SQRT2], rel=1e-13
        )
        assert doc["meta"]["version"]

    def test_eigenvector_flag(self, capsys):
        code, out, _ = run_cli(capsys, "eig", "-a", "4", "-b", "5", "-c", "1",
                               "-n", "2", "-k", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["eigenvector"] == pytest.approx(
            [math.sqrt(3) / 2, math.sqrt(3)], rel=1e-13
        )

    def test_repunit_det_exact(self, capsys):
        code, out, _ = run_cli(capsys, "repunit", "det", "--base", "10",
                               "-n", "3", "--exact")
        assert code == 0
        assert out.strip() == "1111"

    def test_repunit_inverse_rational(self, capsys):
        code, out, _ = run_cli(capsys, "repunit", "inverse", "--base", "10",
                               "-n", "2", "-i", "1", "-j", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["rational"] == "-1/111"

    def test_not_symmetrisable_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "det", "-a", "1", "-b", "0", "-c", "-1",
                                 "-n", "2")
        assert code == 1
        assert out == ""
        assert "NotSymmetrisable" in err

    def test_singular_inverse_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "inverse", "-a", "1", "-b", "0", "-c", "1",
                               "-n", "3", "-i", "1", "-j", "1")
        assert code == 1
        assert "SingularMatrix" in err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    @pytest.mark.parametrize("command", [["cond"], ["inverse", "-i", "1", "-j", "1"],
                                         ["verify"], ["solve", "--rhs", "1,0,0"],
                                         ["solve", "--rhs", "1,0,0", "--method", "kernel"]])
    def test_nonpositive_tol_exit_one(self, capsys, command, tol):
        code, out, err = run_cli(capsys, *command, "-a", "1", "-b", "0", "-c", "1",
                                 "-n", "3", "--tol", tol)
        assert code == 1
        assert out == ""
        assert "TriToeplitzError: singular_tol must be positive" in err

    def test_bench_nonpositive_tol_exit_one(self, capsys):
        # no grid row is gapped, so no kernel would read --tol
        code, out, err = run_cli(capsys, "bench", "-a", "1", "-b", "0", "-c", "1",
                                 "--grid", "4,8", "--reps", "0", "--tol", "-1")
        assert code == 1
        assert out == ""
        assert "TriToeplitzError: singular_tol must be positive" in err

    # x = b/(2s) overflows to inf for the first spec; t = nan for charpoly
    @pytest.mark.parametrize("argv, error", [
        (["det", "-a", "1e-150", "-b", "1e308", "-c", "1e-150", "-n", "3"], "OverflowError"),
        (["inverse", "-a", "1e-150", "-b", "1e308", "-c", "1e-150", "-n", "3",
          "--rhs", "1,2,3"], "OverflowError"),
        (["verify", "-a", "1e-150", "-b", "1e308", "-c", "1e-150", "-n", "3"], "OverflowError"),
        (["charpoly", "-a", "1", "-b", "2.5", "-c", "1", "-n", "3", "-t", "nan"],
         "InvalidParameter"),
    ])
    def test_nonfinite_chebyshev_argument_exit_one(self, capsys, argv, error):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"error: {error}: Chebyshev argument" in err

    def test_decay_regime_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "decay", "-a", "1", "-b", "2", "-c", "1",
                               "-n", "3", "-i", "1", "-j", "2")
        assert code == 1
        assert "NotInGappedRegime" in err

    def test_unknown_flag_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "eig", "-a", "1", "-b", "2", "-c", "1",
                             "-n", "3", "--wat", "7")
        assert code == 2

    def test_missing_parameters_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "eig", "-a", "1", "-b", "2")
        assert code == 2
        assert "missing" in err

    def test_half_entry_rejected_before_kernel_build(self, capsys, monkeypatch):
        def no_kernel(*args, **kwargs):
            raise AssertionError("kernel built before the usage check")

        monkeypatch.setattr("tritoep.cli.build_kernel", no_kernel)
        code, out, err = run_cli(capsys, "inverse", "-a", "1", "-b", "2.5", "-c", "1",
                                 "-n", "3", "-i", "1")
        assert code == 2
        assert out == ""
        assert "both -i and -j" in err

    def test_solve_methods_agree(self, capsys):
        argv = ["solve", "-a", "10", "-b", "11", "-c", "1", "-n", "3",
                "--rhs", "1,0,0", "--format", "json"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv, "--method", "kernel")
        x1 = json.loads(out1)["result"]["solution"]
        x2 = json.loads(out2)["result"]["solution"]
        assert x1 == pytest.approx(x2, rel=1e-11)

    def test_charpoly_zero_at_eigenvalue(self, capsys):
        code, out, _ = run_cli(capsys, "charpoly", "-a", "1", "-b", "2", "-c", "1",
                               "-n", "3", "-t", "2.0", "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["sign"] == 0

    def test_cond_csv(self, capsys):
        code, out, _ = run_cli(capsys, "cond", "-a", "4", "-b", "5", "-c", "1",
                               "-n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda_max,lambda_min,positive_definite,cond_weighted,formula_value"
        assert float(lines[1].split(",")[3]) == pytest.approx(7 / 3, rel=1e-13)


class TestVerify:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-a", "10", "-b", "11", "-c", "1",
                               "-n", "8")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 7

    def test_singular_skips(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-a", "1", "-b", "0", "-c", "1",
                               "-n", "3")
        assert code == 0
        assert "SKIP (singular)" in out
        assert "FAIL" not in out

    def test_envelope_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "-a", "1", "-b", "2", "-c", "1",
                               "-n", "500")
        assert code == 2
        assert "envelope" in err

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(_VERIFY_TOLS, "eigen", 0.0)
        code, out, _ = run_cli(capsys, "verify", "-a", "10", "-b", "11", "-c", "1",
                               "-n", "8")
        assert code == 1
        assert any(line.startswith("eigen") and line.endswith("FAIL")
                   for line in out.splitlines())
        assert out.splitlines()[-1] == "overall: FAIL"

    def test_negative_q_branch_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-a", "-1", "-b", "0.5", "-c", "-2",
                               "-n", "12")
        assert code == 0
        assert "FAIL" not in out


class TestBench:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--grid", "8", "-a", "1",
                               "-b", "2.5", "-c", "1", "--reps", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,apply_inverse_ms,thomas_ms,dense_ms,max_discrepancy"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "8"
        assert float(cells[4]) <= 1e-8

    def test_gap_gating(self, capsys):
        # x = 1: apply_inverse is not offered, thomas and dense still compare
        code, out, _ = run_cli(capsys, "bench", "--grid", "16", "-a", "1",
                               "-b", "2", "-c", "1", "--reps", "2")
        assert code == 0
        cells = out.strip().splitlines()[1].split(",")
        assert cells[1] == "n/a"
        assert cells[2] != "n/a"
        assert cells[3] != "n/a"
        assert float(cells[4]) <= 1e-8

    def test_apply_column_times_apply_only(self, capsys, monkeypatch):
        # apply_inverse_ms times the solve on the kernel built once per row
        builds = []

        def counting_build(*args, **kwargs):
            builds.append(args)
            return build_kernel(*args, **kwargs)

        monkeypatch.setattr("tritoep.cli.build_kernel", counting_build)
        code, out, _ = run_cli(capsys, "bench", "--grid", "8,16", "-a", "1",
                               "-b", "2.5", "-c", "1", "--reps", "3")
        assert code == 0
        assert len(builds) == 2
        assert all(row.split(",")[1] != "n/a"
                   for row in out.strip().splitlines()[1:])

    def test_grid_order_and_discrepancy(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--grid", "8,16,32", "-a", "1",
                               "-b", "2.5", "-c", "1", "--reps", "0")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert [row.split(",")[0] for row in lines] == ["8", "16", "32"]
        assert all(float(row.split(",")[4]) <= 1e-8 for row in lines)


class TestSpecFile:
    def test_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "det", "-a", "10", "-b", "11", "-c", "1",
                               "-n", "3", "--format", "json")
        assert code == 0
        path = tmp_path / "out.json"
        path.write_text(out)
        code, out2, _ = run_cli(capsys, "eig", "--spec-file", str(path),
                                "--format", "json")
        assert code == 0
        code, out3, _ = run_cli(capsys, "eig", "-a", "10", "-b", "11", "-c", "1",
                                "-n", "3", "--format", "json")
        assert out2 == out3

    def test_flag_overrides_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"a": 1, "b": 2, "c": 1, "n": 3}))
        code, out, _ = run_cli(capsys, "eig", "--spec-file", str(path), "-n", "2",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["spec"]["n"] == 2


def test_cross_process_determinism():
    argv = [sys.executable, "-m", "tritoep", "eig", "-a", "1", "-b", "2",
            "-c", "1", "-n", "5", "--format", "json"]
    r1 = subprocess.run(argv, capture_output=True)
    r2 = subprocess.run(argv, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
