import importlib
import json
import math
import os
import subprocess
import sys

import pytest

from tritoep import build_kernel, cli, make_spec, oracle
from tritoep.cli import main
from tritoep.oracle import _VERIFY_TOLS, dense_from_spec, dense_inverse
from tritoep.repunit import repunit_det_exact

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

    def test_plain_repunit_det_skips_the_continuant(self, capsys, monkeypatch):
        # plain output without --exact prints the float alone, so the exact
        # continuant (about 125 ms at this n) is not computed
        def refuse(*args):
            raise RuntimeError("repunit_det_exact called")

        # the module, not the package attribute of the same name (the function)
        module = importlib.import_module("tritoep.repunit")
        monkeypatch.setattr(module, "repunit_det_exact", refuse)
        argv = ("repunit", "det", "--base", "12", "-n")
        assert run_cli(capsys, *argv, "20000") == (0, "inf\n", "")
        assert run_cli(capsys, *argv, "20") == (0, "4.182283628124518e+21\n", "")

    @pytest.mark.parametrize("d", range(1, 13))
    def test_repunit_det_is_the_continuant(self, capsys, d):
        # the CLI prints R_(n+1)(d); the continuant is the determinant it
        # names, so this is the repunit theorem at the command line
        for n in (1, 2, 17, 3000):
            code, out, err = run_cli(capsys, "repunit", "det", "--base", str(d),
                                     "-n", str(n), "--exact")
            assert (code, out, err) == (0, f"{repunit_det_exact(d, n)}\n", "")

    def test_repunit_inverse_rational(self, capsys):
        code, out, _ = run_cli(capsys, "repunit", "inverse", "--base", "10",
                               "-n", "2", "-i", "1", "-j", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["rational"] == "-1/111"

    @pytest.mark.parametrize("action, argv", [
        ("value", ["-m", "5000", "--exact"]),
        ("det", ["-n", "20000", "--format", "json"]),
        ("inverse", ["-n", "5000", "-i", "1", "-j", "1", "--format", "csv"]),
    ])
    def test_exact_output_past_the_digit_limit(self, capsys, action, argv):
        # past the interpreter's 4300-digit limit on int-to-str, which the
        # CLI lifts for its conversion alone
        limit = sys.get_int_max_str_digits()
        base = "2" if action == "det" else "10"
        code, out, err = run_cli(capsys, "repunit", action, "--base", base, *argv)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        if action == "value":
            assert out == "1" * 5000 + "\n"
        elif action == "det":
            # R_20001(2) = 2^20001 - 1: 6021 digits, checked by its last 18
            exact = json.loads(out)["result"]["exact"]
            assert len(exact) == 6021
            assert int(exact[-18:]) == (2**20001 - 1) % 10**18
        else:
            # R_1 R_5000 / R_5001, coprime as gcd(R_5000, R_5001) = R_1
            assert out.splitlines()[1] == f"1,1,1,{'1' * 5000}/{'1' * 5001},0.1"

    def test_repunit_identity_at_a_tiny_base(self, capsys):
        # d - 1 rounds to -1 at d = 1e-300; log R_m(d) must not take its log
        code, out, _ = run_cli(capsys, "repunit", "identity", "--base", "1e-300", "-m", "5")
        assert code == 0
        assert out.startswith("residual = ")

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

    # x = b/(2s) overflows to inf for every spec but the charpoly one, whose t = nan
    @pytest.mark.parametrize("argv, error", [
        (["det", "-a", "1e-150", "-b", "1e308", "-c", "1e-150", "-n", "3"], "OverflowError"),
        (["inverse", "-a", "1e-150", "-b", "1e308", "-c", "1e-150", "-n", "3",
          "--rhs", "1,2,3"], "OverflowError"),
        (["verify", "-a", "1e-150", "-b", "1e308", "-c", "1e-150", "-n", "3"], "OverflowError"),
        (["charpoly", "-a", "1", "-b", "2.5", "-c", "1", "-n", "3", "-t", "nan"],
         "InvalidParameter"),
        # refused before the eigen residual, which overflows for this spec
        (["verify", "-a", "1e-200", "-b", "1e308", "-c", "1e-300", "-n", "3"], "OverflowError"),
        (["decay", "-a", "1e-150", "-b", "1e308", "-c", "1e-150", "-n", "3", "-i", "1",
          "-j", "3"], "OverflowError"),
    ])
    def test_nonfinite_chebyshev_argument_exit_one(self, capsys, argv, error):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"error: {error}: Chebyshev argument" in err

    def test_offdiagonal_product_outside_the_float_range(self, capsys):
        # a*c overflows for eig and underflows for det: both answer
        code, out, _ = run_cli(capsys, "eig", "-a", "1e200", "-b", "1", "-c", "1e200",
                               "-n", "3", "--format", "json")
        assert code == 0
        lam = json.loads(out)["result"]["eigenvalues"]
        assert lam == pytest.approx([SQRT2 * 1e200, 0.0, -SQRT2 * 1e200],
                                    abs=1e-15 * SQRT2 * 1e200)
        code, out, _ = run_cli(capsys, "det", "-a", "1e-200", "-b", "1", "-c", "1e-200",
                               "-n", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["value"] == pytest.approx(1.0, rel=1e-15)

    def test_decay_eta_whose_square_overflows(self, capsys):
        # x = 1.5e299: (x - 1)(x + 1) overflows, eta = x + sqrt(x^2 - 1) does not
        code, out, _ = run_cli(capsys, "decay", "-a", "1e-300", "-b", "0.3", "-c", "1e-300",
                               "-n", "3", "-i", "1", "-j", "3")
        assert code == 0
        name, value = out.splitlines()[0].split(" = ")
        assert name == "eta"
        assert float(value) == pytest.approx(3e299, rel=1e-15)

    @pytest.mark.parametrize("method", ["thomas", "kernel"])
    def test_infinite_rhs_gives_nan_solution(self, capsys, method):
        code, out, err = run_cli(capsys, "solve", "-a", "1", "-b", "2.5", "-c", "1", "-n", "5",
                                 "--rhs", "1,inf,0,0,0", "--method", method)
        assert code == 0
        assert err == ""
        assert out.splitlines() == [f"x_{i} = nan" for i in range(1, 6)]

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

        monkeypatch.setattr("tritoep.greens.build_kernel", no_kernel)
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

    def test_vector_csv_rows_are_the_cells_formatted(self, capsys):
        # a vector's rows are formatted whole; each must read as its cells do
        values = [math.nan, math.inf, -math.inf, 1e300, -1e-300, -0.0, 0.1, 5e-324]
        (header, rows), _ = cli._indexed("i", "x", "x", values)
        assert header == ["i", "x"]
        assert list(rows) == [",".join(map(cli._cell, row)) for row in enumerate(values, 1)]
        code, out, err = run_cli(capsys, "solve", "-a", "1", "-b", "2.5", "-c", "1", "-n", "3",
                                 "--rhs=1e300,nan,2", "--format", "csv")
        assert (code, out, err) == (0, "i,x\n1,nan\n2,nan\n3,nan\n", "")


# each subcommand and repunit action, with a valid argv after it
_NAMED = {
    ("eig",): ["-a", "1", "-b", "2.5", "-c", "1", "-n", "5", "-k", "2"],
    ("det",): ["-a", "1", "-b", "2.5", "-c", "1", "-n", "5"],
    ("charpoly",): ["-a", "1", "-b", "2.5", "-c", "1", "-n", "5", "-t", "0.5"],
    ("inverse",): ["-a", "1", "-b", "2.5", "-c", "1", "-n", "5", "-i", "1", "-j", "2"],
    ("solve",): ["-a", "1", "-b", "2.5", "-c", "1", "-n", "2", "--rhs", "1,2"],
    ("cond",): ["-a", "1", "-b", "2.5", "-c", "1", "-n", "5", "--tol", "1e-9"],
    ("decay",): ["-a", "1", "-b", "2.5", "-c", "1", "-n", "5", "-i", "1", "-j", "2"],
    ("verify",): ["-a", "1", "-b", "2.5", "-c", "1", "-n", "5"],
    ("bench",): ["-a", "1", "-b", "2.5", "-c", "1", "--grid", "8", "--reps", "0"],
    ("repunit", "value"): ["--base", "10", "-m", "3", "--exact"],
    ("repunit", "det"): ["--base", "10", "-n", "3"],
    ("repunit", "product"): ["--base", "10", "-n", "3"],
    ("repunit", "cond"): ["--base", "10", "-n", "3"],
    ("repunit", "inverse"): ["--base", "10", "-n", "3", "-i", "1", "-j", "2"],
    ("repunit", "identity"): ["--base", "10", "-m", "3"],
}
# the parser table's repunit actions, and every option given before the command
# (any row's, nested ones too) and before a repunit action, with the usage printed
_ACTIONS = next(then for name, then, *_ in cli._COMMANDS if name == "repunit")
_ACTION_FLAGS = sorted({flag for *_, options in _ACTIONS for flag, _ in options})
_COMMAND_FLAGS = sorted({flag for *_, options in cli._COMMANDS for flag, _ in options}
                        | set(_ACTION_FLAGS))
_USAGE = ("usage: tritoep [-h]\n"
          "               {eig,det,charpoly,inverse,solve,cond,decay,repunit,verify,bench}\n"
          "               ...\n")
_REPUNIT_USAGE = "usage: tritoep repunit [-h] {value,det,product,cond,inverse,identity} ...\n"
_REFUSALS = ([([flag, "det"], _USAGE, "command") for flag in _COMMAND_FLAGS]
             + [(["repunit", flag, "det"], _REPUNIT_USAGE, "action") for flag in _ACTION_FLAGS])
# per name: the name alone, its help, a valid argv, an unknown option and a
# bad --format, each with a piece of what it prints
_PARSER_CASES = [case for name, valid in _NAMED.items() for case in (
    ([*name], ""), ([*name, "--help"], "usage: "), ([*name, *valid], ""),
    ([*name, *valid, "--wat", "7"], "error: unrecognized arguments: --wat 7\n"),
    ([*name, *valid, "--format", "xml"], "error: argument --format: invalid choice: 'xml'"))]


def _parsed(parser, argv, capsys):
    """The parsed namespace (or the exit code), stdout and stderr."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return (result, *capsys.readouterr())


class TestParser:
    @pytest.mark.parametrize("argv, shown", _PARSER_CASES,
                             ids=[" ".join(argv) for argv, _ in _PARSER_CASES])
    def test_named_subcommand_parses_as_the_full_parser(self, argv, shown, capsys,
                                                        monkeypatch):
        # main builds the named subcommand's parser alone; its usage, help,
        # errors and namespace must be the full parser's
        monkeypatch.setenv("COLUMNS", "80")
        full = _parsed(cli._build_parser(), argv, capsys)
        assert _parsed(cli._build_parser(argv), argv, capsys) == full
        assert shown in full[1] + full[2]

    def test_named_subcommand_is_the_only_one(self, capsys):
        det = _NAMED[("det",)]
        assert _parsed(cli._build_parser(["det", *det]), ["eig", *det], capsys)[0] == 2
        value = ["repunit", "value", *_NAMED[("repunit", "value")]]
        assert _parsed(cli._build_parser(["repunit", "det"]), value, capsys)[0] == 2
        assert _parsed(cli._build_parser(value), value, capsys)[0]["action"] == "value"

    @pytest.mark.parametrize("argv", [["bogus"], ["repunit", "bogus"]], ids=" ".join)
    def test_unknown_name_lists_every_choice(self, capsys, argv):
        names = [name for name, *_ in (cli._COMMANDS if len(argv) == 1 else _ACTIONS)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        choices = err.split("invalid choice: 'bogus'")[1]
        assert all(name in choices for name in names)
        assert err.splitlines()[0].startswith(f"usage: {' '.join(['tritoep', *argv[:-1]])} [-h]")

    @pytest.mark.parametrize("argv", [["--base", "10", "det", "-n", "3"], ["-n", "3"],
                                      ["--format=json", "value", "--base", "10", "-m", "3"]],
                             ids=" ".join)
    def test_option_before_the_repunit_action_is_named(self, capsys, monkeypatch, argv):
        # argparse would set the option aside and take its value for the action
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(capsys, "repunit", *argv)
        assert (code, out) == (2, "")
        option = argv[0].split("=")[0]
        assert err == (_REPUNIT_USAGE
                       + f"tritoep repunit: error: argument {option}: the action comes first\n")

    @pytest.mark.parametrize("argv, usage, level", _REFUSALS,
                             ids=[" ".join(argv) for argv, *_ in _REFUSALS])
    def test_every_option_before_its_command_or_action_is_named(self, capsys, monkeypatch,
                                                                argv, usage, level):
        # every option of the table, at the level where argparse would take its value
        # for the name that follows it
        monkeypatch.setenv("COLUMNS", "80")
        option = argv[-2]
        prog = " ".join(["tritoep", *argv[:-2]])
        assert run_cli(capsys, *argv) == (
            2, "", f"{usage}{prog}: error: argument {option}: the {level} comes first\n")

    _BEFORE_THE_COMMAND = [
        (["--format", "json", "det", "-a", "1", "-b", "2.5", "-c", "1", "-n", "5"], "--format"),
        (["-n", "5", "eig"], "-n"), (["--rhs=1,2", "solve"], "--rhs"), (["-k2", "eig"], "-k"),
        (["--base", "10", "repunit", "det", "-n", "3"], "--base")]

    @pytest.mark.parametrize("argv, option", _BEFORE_THE_COMMAND,
                             ids=[" ".join(argv) for argv, _ in _BEFORE_THE_COMMAND])
    def test_option_before_the_command_is_named(self, capsys, monkeypatch, argv, option):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == _USAGE + f"tritoep: error: argument {option}: the command comes first\n"

    def test_abbreviated_option_after_the_command_is_its_own(self, capsys):
        # --r names --rhs to solve; the top level, where --reps would share it, never reads it
        spec = ["-a", "1", "-b", "2.5", "-c", "1", "-n", "3"]
        assert run_cli(capsys, "solve", *spec, "--r", "1,2,3") == run_cli(
            capsys, "solve", *spec, "--rhs", "1,2,3")

    def test_top_level_help_lists_every_subcommand(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(capsys, "-h")
        assert (code, err) == (0, "")
        assert all(f"    {name:<20}{helptext}\n" in out for name, _, helptext, _ in cli._COMMANDS)

    def test_no_arguments_names_the_missing_command(self, capsys):
        code, out, err = run_cli(capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: tritoep [-h]")
        assert err.endswith("tritoep: error: the following arguments are required: command\n")

    def test_negative_first_rhs_entry_needs_the_attached_form(self, capsys):
        # argparse reads "-1.5,1" as an option, not as a negative number, so
        # --rhs takes it only attached, as --rhs=-1.5,1 (README, "Command line")
        spec = ["-a", "1", "-b", "2.5", "-c", "1", "-n", "2"]
        code, out, err = run_cli(capsys, "solve", *spec, "--rhs", "-1.5,1")
        assert (code, out) == (2, "")
        assert err.endswith("tritoep solve: error: argument --rhs: expected one argument\n")
        code, out, err = run_cli(capsys, "solve", *spec, "--rhs=-1.5,1")
        assert (code, err) == (0, "")
        x = [float(line.split(" = ")[1]) for line in out.splitlines()]
        assert x == pytest.approx([-19 / 21, 16 / 21], rel=1e-14)


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

    def test_determinant_where_the_raw_elimination_meets_a_zero_pivot(self, capsys):
        # |q| = 1e150: the raw matrix's elimination meets an exact zero pivot
        # although det is about 55; the check reads the symmetrised matrix
        code, out, _ = run_cli(capsys, "verify", "-a", "1e150", "-b", "3", "-c", "1e-150",
                               "-n", "4")
        assert code == 0
        assert "determinant   residual 0.0  tol 1e-09  PASS\n" in out
        assert "overall: PASS" in out

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

    def test_badly_scaled_q(self, capsys, monkeypatch):
        # q = sqrt(1000) and n = 200: q^199 is above 1e280, so the eigen check
        # runs on the symmetrised matrix, as the conditioning check always does;
        # the dense oracle's pivots fail on the raw scaling, so the inverse
        # check compares on the symmetrised matrix too
        symmetric = []

        def spy(m):
            symmetric.append(bool((m == m.T).all()))
            return dense_inverse(m)

        monkeypatch.setattr("tritoep.oracle.dense_inverse", spy)
        code, out, _ = run_cli(capsys, "verify", "-a", "1000", "-b", "100", "-c", "1",
                               "-n", "200")
        assert code == 0
        assert symmetric == [False, True]
        lines = out.splitlines()
        assert lines[1].startswith("eigen ") and lines[1].endswith("PASS")
        assert lines[3].startswith("inverse ") and lines[3].endswith("PASS")
        assert lines[-1] == "overall: PASS"

    def test_former_name_is_the_oracle_checks(self):
        spec = make_spec(10.0, 11.0, 1.0, 8)
        assert cli._verify_checks is oracle.verify_checks
        assert (cli._verify_checks(spec, cli.DEFAULT_SINGULAR_TOL)
                == oracle.verify_checks(spec, cli.DEFAULT_SINGULAR_TOL))

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

        monkeypatch.setattr("tritoep.greens.build_kernel", counting_build)
        code, out, _ = run_cli(capsys, "bench", "--grid", "8,16", "-a", "1",
                               "-b", "2.5", "-c", "1", "--reps", "3")
        assert code == 0
        assert len(builds) == 2
        assert all(row.split(",")[1] != "n/a"
                   for row in out.strip().splitlines()[1:])

    def test_failing_solvers_blank_their_columns(self, capsys):
        # b = 0: at n = 3 Thomas meets a zero pivot and the dense LU is
        # singular; at n = 4 only Thomas fails.  x = 0 offers no apply.
        code, out, _ = run_cli(capsys, "bench", "--grid", "3,4", "-a", "1",
                               "-b", "0", "-c", "1", "--reps", "1")
        assert code == 0
        rows = [row.split(",") for row in out.strip().splitlines()[1:]]
        assert rows[0] == ["3", "n/a", "n/a", "n/a", "n/a"]
        assert rows[1][:3] == ["4", "n/a", "n/a"]
        assert float(rows[1][3]) > 0.0
        assert rows[1][4] == "n/a"

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

    def test_list_refused(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([1, 2, 1, 3]))
        code, out, err = run_cli(capsys, "eig", "--spec-file", str(path))
        assert code == 2
        assert out == ""
        assert "--spec-file must contain a JSON object" in err

    # the file's values go through the spec's own validators, as the flags' do
    @pytest.mark.parametrize("n, shown", [("3.7", "3.7"), ("5.0", "5.0"), ("true", "True"),
                                          ('"5"', "'5'"), ("1e400", "inf")])
    def test_order_that_is_not_an_integer_refused(self, capsys, tmp_path, n, shown):
        path = tmp_path / "spec.json"
        path.write_text(f'{{"a": 1, "b": 2.5, "c": 1, "n": {n}}}')
        code, out, err = run_cli(capsys, "det", "--spec-file", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: InvalidOrder: order n must be an integer, got {shown}\n"

    @pytest.mark.parametrize("a, shown", [('"x"', "'x'"), ("null", "None")])
    def test_bench_coefficient_that_is_not_a_number_refused(self, capsys, tmp_path, a, shown):
        path = tmp_path / "spec.json"
        path.write_text(f'{{"a": {a}, "b": 2.5, "c": 1}}')
        code, out, err = run_cli(capsys, "bench", "--spec-file", str(path), "--grid", "4")
        assert (code, out) == (1, "")
        assert err == f"error: InvalidParameter: a must be a real number, got {shown}\n"


def test_cross_process_determinism():
    argv = [sys.executable, "-m", "tritoep", "eig", "-a", "1", "-b", "2",
            "-c", "1", "-n", "5", "--format", "json"]
    r1 = subprocess.run(argv, capture_output=True)
    r2 = subprocess.run(argv, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_closed_pipe_exits_one_quietly(fmt, unbuffered):
    # 10^4 eigenvalues are far more than a pipe holds, so the write meets the
    # closed pipe.  Unbuffered, the answer's one large write may come back
    # short without an error; the print's closing newline must then raise.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "tritoep", "eig", "-a", "1", "-b", "2.5",
                             "-c", "1", "-n", "10000", "--format", fmt],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = {"json": b"{", "csv": b"k,eigenvalue", "plain": b"lambda_1 = "}[fmt]
    assert proc.stdout.readline().startswith(first)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


_IMPORT_SETS = """
import contextlib, io, json, sys, types
import tritoep
from tritoep import cli

listed = set(tritoep.__all__) <= set(dir(tritoep))
watched = ("tritoep.spectral", "tritoep.greens", "tritoep.decay", "tritoep.repunit",
           "tritoep.conditioning", "tritoep.oracle", "statistics", "fractions", "numpy")
loaded = [[name for name in watched if name in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    loaded.append([name for name in watched if name in sys.modules])
import tritoep.repunit
function = (isinstance(tritoep.repunit, types.FunctionType)
            and tritoep.repunit is sys.modules["tritoep.repunit"].repunit)
print(json.dumps({"listed": listed, "loaded": loaded, "function": function}))
"""

_SPEC5 = ["-a", "1", "-b", "2.5", "-c", "1", "-n", "5"]
_SPECTRAL, _DECAY, _REPUNIT = "tritoep.spectral", "tritoep.decay", "tritoep.repunit"


# (subcommands, what is loaded before them and after each): each process
# runs its subcommands in turn, so a module shows with the first that needs it
_LOADING = (
    ([["repunit", "det", "--base", "10", "-n", "3"],
      ["decay", "-a", "1", "-b", "2.5", "-c", "1", "-n", "9", "-i", "2", "-j", "7"],
      ["repunit", "inverse", "--base", "10", "-n", "3", "-i", "1", "-j", "2"],
      ["det", *_SPEC5],
      ["charpoly", *_SPEC5, "-t", "0.5"],
      ["eig", *_SPEC5],
      ["cond", "-a", "1", "-b", "0.5", "-c", "1", "-n", "5"],
      ["eig", *_SPEC5, "-k", "2"]],
     [[], [_REPUNIT], [_DECAY, _REPUNIT], [_DECAY, _REPUNIT, "fractions"],
      *[[_SPECTRAL, _DECAY, _REPUNIT, "fractions"]] * 3,
      [_SPECTRAL, _DECAY, _REPUNIT, "tritoep.conditioning", "fractions"],
      [_SPECTRAL, _DECAY, _REPUNIT, "tritoep.conditioning", "fractions", "numpy"]]),
    ([["solve", "-a", "1", "-b", "2.5", "-c", "1", "-n", "3", "--rhs", "1,2,3",
       "--method", "thomas"],
      ["inverse", *_SPEC5, "-i", "1", "-j", "2"]],
     [[], *[["tritoep.greens", "numpy"]] * 2]),
)


def test_each_subcommand_loads_only_its_modules():
    # fresh interpreters: the library modules, statistics, fractions and
    # numpy come with the subcommands that use them (the scalar ones, eig
    # without -k, cond and decay among them, never load numpy; eig -k, whose
    # vector is an array, does; repunit det loads no fractions, and decay,
    # solve and inverse no spectral); the repunit subcommand imports the
    # submodule tritoep.repunit before anything reads the package attribute,
    # which must stay the function
    for argvs, loaded in _LOADING:
        run = subprocess.run([sys.executable, "-c", _IMPORT_SETS, json.dumps(argvs)],
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == {"listed": True, "loaded": loaded, "function": True}
