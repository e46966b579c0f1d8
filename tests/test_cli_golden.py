"""Golden CLI outputs: stdout, stderr and exit code, byte for byte.

Each case runs ``tritoep.cli.main`` in process on a fixed argv and compares
what it prints with ``cli_golden.json``.  The cases cover every subcommand
in every format, ``--help`` for every parser, edge values and error paths.

Regenerate the data (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from tritoep.cli import main

DATA = Path(__file__).with_name("cli_golden.json")

# help text wraps at the terminal width, so pin it
COLUMNS = "80"

FORMATS = ("json", "csv", "plain")

GAPPED = ["-a", "1", "-b", "2.5", "-c", "1"]
NEG_Q = ["-a", "-1", "-b", "0.5", "-c", "-2"]
HUGE_S = ["-a", "1e308", "-b", "1.7e308", "-c", "1e308"]
HUGE_ROW = ["-a", "8e307", "-b", "1.7e308", "-c", "8e307"]

# (argv, formats): each entry is run once per listed format, with
# "--format <fmt>" appended; formats None runs the argv as it is
_PER_FORMAT = [
    (["eig", "-a", "1", "-b", "2", "-c", "1", "-n", "3"], FORMATS),
    (["eig", "-a", "4", "-b", "5", "-c", "1", "-n", "4", "-k", "2"], FORMATS),
    (["eig", "-a", "4", "-b", "5", "-c", "1", "-n", "4", "-k", "3",
      "--normalization", "unit_weighted"], FORMATS),
    (["eig", *NEG_Q, "-n", "5", "-k", "1", "--normalization", "unit_euclidean"],
     FORMATS),
    (["eig", *NEG_Q, "-n", "4"], FORMATS),
    # n = 1: the one eigenvalue is b
    (["eig", "-a", "1", "-b", "2", "-c", "1", "-n", "1"], FORMATS),
    # a*c = 1e400 past the float range; the middle eigenvalue, exactly 1, is
    # accurate only normwise and prints as 1.2246467991473533e+184
    (["eig", "-a", "1e200", "-b", "1", "-c", "1e200", "-n", "3"], FORMATS),
    (["det", "-a", "10", "-b", "11", "-c", "1", "-n", "50"], FORMATS),
    # a singular spec: the sine quotient never rounds to an exact zero, so
    # the determinant prints as a rounding-level value with its sign
    (["det", "-a", "1", "-b", "0", "-c", "1", "-n", "3"], FORMATS),
    # |det| beyond the float range: value is null / "overflow"
    (["det", "-a", "10", "-b", "11", "-c", "1", "-n", "400"], FORMATS),
    (["det", *NEG_Q, "-n", "12"], FORMATS),
    # det takes no tolerance, so --tol is a usage error
    (["det", "-a", "10", "-b", "11", "-c", "1", "-n", "5", "--tol", "1e-8"], ("json",)),
    (["charpoly", "-a", "1", "-b", "2", "-c", "1", "-n", "5", "-t", "0.5"], FORMATS),
    # t at an eigenvalue: reported as an exact zero
    (["charpoly", "-a", "1", "-b", "2", "-c", "1", "-n", "3", "-t", "2.0"], FORMATS),
    (["charpoly", "-a", "10", "-b", "11", "-c", "1", "-n", "400", "-t", "-3"],
     FORMATS),
    (["inverse", "-a", "10", "-b", "11", "-c", "1", "-n", "40", "-i", "2", "-j", "39"],
     FORMATS),
    (["inverse", *NEG_Q, "-n", "6", "-i", "5", "-j", "2"], FORMATS),
    (["inverse", *GAPPED, "-n", "5", "--rhs", "1,0,0,0,2"], FORMATS),
    (["solve", *GAPPED, "-n", "5", "--rhs", "1,0,0,0,2"], FORMATS),
    (["solve", *GAPPED, "-n", "5", "--rhs", "1,0,0,0,2", "--method", "kernel"],
     FORMATS),
    (["solve", *NEG_Q, "-n", "3", "--rhs", "1,-2,0.5", "--method", "thomas"],
     FORMATS),
    (["cond", "-a", "4", "-b", "5", "-c", "1", "-n", "2"], FORMATS),
    # indefinite: formula_value is null / n/a / absent
    (["cond", "-a", "1", "-b", "0.5", "-c", "1", "-n", "5"], FORMATS),
    # every eigenvalue is below 1e-19, but min|lambda| is 0.13 of |b| + 2s
    (["cond", "-a", "1e-20", "-b", "2.5e-20", "-c", "1e-20", "-n", "10"], FORMATS),
    (["decay", *GAPPED, "-n", "9", "-i", "2", "-j", "7"], FORMATS),
    (["decay", "-a", "-1", "-b", "5", "-c", "-2", "-n", "9", "-i", "7", "-j", "2"],
     FORMATS),
    # s = 1e-308: 2/s overflows, the prefactor 8.94e307 does not
    (["decay", "-a", "1e-308", "-b", "3e-308", "-c", "1e-308", "-n", "5", "-i", "1",
      "-j", "1"], FORMATS),
    (["repunit", "value", "--base", "10", "-m", "5"], FORMATS),
    (["repunit", "value", "--base", "10", "-m", "5", "--exact"], FORMATS),
    (["repunit", "value", "--base", "2.5", "-m", "4"], FORMATS),
    (["repunit", "det", "--base", "10", "-n", "3"], FORMATS),
    (["repunit", "det", "--base", "10", "-n", "3", "--exact"], FORMATS),
    (["repunit", "det", "--base", "2.5", "-n", "3"], FORMATS),
    (["repunit", "product", "--base", "10", "-n", "5"], FORMATS),
    # log_value beyond the float range: value is null / "overflow"
    (["repunit", "product", "--base", "10", "-n", "400"], FORMATS),
    (["repunit", "cond", "--base", "10", "-n", "5"], FORMATS),
    (["repunit", "inverse", "--base", "10", "-n", "5", "-i", "4", "-j", "2"], FORMATS),
    (["repunit", "identity", "--base", "10", "-m", "7"], FORMATS),
    (["repunit", "identity", "--base", "2.5", "-m", "30"], FORMATS),
    (["verify", "-a", "10", "-b", "11", "-c", "1", "-n", "8"], FORMATS),
    # singular: SKIP rows with n/a residuals
    (["verify", "-a", "1", "-b", "0", "-c", "1", "-n", "3"], FORMATS),
    # x 1.5e-12 from -cos(pi/4): the kernel's self-check refuses it, and the
    # determinant's residual is within the rounding bound
    (["verify", "-a", "1", "-b", "-1.41421356237", "-c", "1", "-n", "3"], FORMATS),
    # x 4.8e-14 from it: the kernel flag calls it singular
    (["verify", "-a", "1", "-b", "-1.414213562373", "-c", "1", "-n", "3"], FORMATS),
    (["verify", *NEG_Q, "-n", "12"], FORMATS),
    # q = sqrt(1000) at n = 200: the eigen and the inverse checks both run
    # on the symmetrised matrix
    (["verify", "-a", "1000", "-b", "100", "-c", "1", "-n", "200"], FORMATS),
    # entries below n eps: the oracle's pivot rule is relative to max|A| alone
    (["verify", "-a", "1e-20", "-b", "2.5e-20", "-c", "1e-20", "-n", "10"], FORMATS),
    # s^2 past the float range, and below it: the continuant runs in units of s^k
    (["verify", "-a", "1e200", "-b", "3e200", "-c", "1e200", "-n", "4"], FORMATS),
    (["verify", "-a", "1e-200", "-b", "3e-200", "-c", "1e-200", "-n", "4"], FORMATS),
    # |a| + |b| + |c| past the float range: the eigen residual is taken on A/4
    (["verify", "-a", "6e307", "-b", "6e307", "-c", "6e307", "-n", "3"], FORMATS),
    # s = 1e308, where 2s is past the float range: x = 0.85, not 0
    (["det", *HUGE_S, "-n", "3"], FORMATS),
    (["charpoly", *HUGE_S, "-n", "3", "-t", "0"], FORMATS),
    (["solve", *HUGE_S, "-n", "3", "--rhs", "1,2,3", "--method", "kernel"], FORMATS),
    # |b| + 2s past the float range: the refusal scale is not inf
    (["cond", "-a", "5e307", "-b", "1e308", "-c", "5e307", "-n", "3"], FORMATS),
    # |a| + |b| + |c| past the float range: Thomas solves with A/4
    (["solve", *HUGE_ROW, "-n", "3", "--rhs", "1,2,3"], FORMATS),
    # d^m near 1, where (d^m - 1)/(d - 1) cancels
    (["repunit", "value", "--base", "1.000000001", "-m", "10"], FORMATS),
    (["bench", "--grid", "8,16", *GAPPED, "--reps", "0"], FORMATS),
    # x = 1: apply_inverse is not offered
    (["bench", "--grid", "16", "-a", "1", "-b", "2", "-c", "1", "--reps", "0",
      "--dense-limit", "8"], FORMATS),
    (["bench", "--grid", "8", *GAPPED, "--reps", "0"], None),
    (["repunit", "det", "--base", "10", "-n", "3", "--exact"], None),
    (["eig", "-a", "1", "-b", "2", "-c", "1", "-n", "3"], None),
]

_HELP = [
    ["--help"],
    *[[cmd, "--help"] for cmd in ("eig", "det", "charpoly", "inverse", "solve",
                                  "cond", "decay", "repunit", "verify", "bench")],
    *[["repunit", action, "--help"]
      for action in ("value", "det", "product", "cond", "inverse", "identity")],
]

_ERRORS = [
    [],
    ["eig", "-a", "1", "-b", "2", "-c", "1", "-n", "3", "--wat", "7"],
    ["eig", "-a", "1", "-b", "2"],
    ["eig", "-a", "1", "-b", "2", "-c", "1", "-n", "3", "-k", "5"],
    ["eig", "-a", "1", "-b", "2", "-c", "1", "-n", "3", "--format", "xml"],
    ["det", "-a", "1", "-b", "0", "-c", "-1", "-n", "2"],
    ["det", "-a", "1", "-b", "2", "-c", "1", "-n", "0"],
    ["det", "-a", "0", "-b", "2", "-c", "1", "-n", "3"],
    ["det", "--spec-file", "does-not-exist.json"],
    ["charpoly", "-a", "1", "-b", "2", "-c", "1", "-n", "3"],
    ["inverse", "-a", "1", "-b", "0", "-c", "1", "-n", "3", "-i", "1", "-j", "1"],
    ["inverse", *GAPPED, "-n", "3", "-i", "1"],
    ["inverse", *GAPPED, "-n", "3", "-j", "2"],
    ["inverse", *GAPPED, "-n", "3", "-i", "1", "-j", "1", "--rhs", "1,2,3"],
    ["inverse", *GAPPED, "-n", "3"],
    ["inverse", *GAPPED, "-n", "3", "-i", "0", "-j", "1"],
    ["inverse", *GAPPED, "-n", "3", "--rhs", "1,2"],
    ["solve", *GAPPED, "-n", "3", "--rhs", "1,x,3"],
    ["solve", "-a", "1", "-b", "0", "-c", "1", "-n", "3", "--rhs", "1,2,3",
     "--method", "kernel"],
    ["cond", "-a", "1", "-b", "0", "-c", "1", "-n", "3"],
    # a large --tol refuses a well-conditioned spec
    ["inverse", *GAPPED, "-n", "3", "-i", "1", "-j", "1", "--tol", "10"],
    ["cond", "-a", "1", "-b", "0.5", "-c", "1", "-n", "5", "--tol", "0.3"],
    ["decay", "-a", "1", "-b", "2", "-c", "1", "-n", "3", "-i", "1", "-j", "2"],
    ["decay", *GAPPED, "-n", "3", "-i", "4", "-j", "2"],
    ["repunit"],
    ["repunit", "value", "--base", "-1", "-m", "3"],
    ["repunit", "value", "--base", "-1", "-m", "0"],
    ["repunit", "value", "--base", "-1", "-m", "3", "--exact"],
    ["repunit", "value", "--base", "2.5", "-m", "3", "--exact"],
    ["repunit", "value", "--base", "10", "-m", "0"],
    ["repunit", "det", "--base", "-1", "-n", "3"],
    ["repunit", "det", "--base", "-1", "-n", "3", "--exact"],
    ["repunit", "det", "--base", "2.5", "-n", "3", "--exact"],
    ["repunit", "det", "--base", "10", "-n", "0"],
    ["repunit", "det", "--base", "2.5", "-n", "0"],
    ["repunit", "product", "--base", "-1", "-n", "3"],
    ["repunit", "product", "--base", "-1", "-n", "0"],
    ["repunit", "cond", "--base", "0", "-n", "3"],
    ["repunit", "cond", "--base", "0", "-n", "0"],
    ["repunit", "inverse", "--base", "2.5", "-n", "3", "-i", "1", "-j", "1"],
    ["repunit", "inverse", "--base", "-1", "-n", "0", "-i", "1", "-j", "1"],
    ["repunit", "inverse", "--base", "10", "-n", "0", "-i", "1", "-j", "1"],
    ["repunit", "inverse", "--base", "10", "-n", "3", "-i", "5", "-j", "1"],
    ["repunit", "identity", "--base", "-1", "-m", "3"],
    ["repunit", "identity", "--base", "-1", "-m", "-1"],
    ["repunit", "identity", "--base", "10", "-m", "-1"],
    ["verify", "-a", "1", "-b", "2", "-c", "1", "-n", "500"],
    # an eigenvalue past the float range is refused, naming k
    ["eig", *HUGE_S, "-n", "3"],
    ["eig", *HUGE_ROW, "-n", "3"],
    ["eig", *HUGE_ROW, "-n", "3", "--format", "json"],
    ["verify", *HUGE_ROW, "-n", "3"],
    ["bench", "--grid", "8,x", *GAPPED, "--reps", "0"],
    ["bench", "--grid", "8", *GAPPED, "--reps", "-1"],
    ["bench", "--grid", "8", "-a", "1", "-b", "2.5"],
]


def _cases():
    argvs = []
    for argv, formats in _PER_FORMAT:
        if formats is None:
            argvs.append(argv)
        else:
            argvs.extend([*argv, "--format", fmt] for fmt in formats)
    return argvs + _HELP + _ERRORS


CASES = _cases()


def run(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "out": out.getvalue(),
            "err": err.getvalue()}


def _load():
    return {tuple(rec["argv"]): rec for rec in json.loads(DATA.read_text())}


GOLDEN = _load() if DATA.exists() else {}


def test_every_case_has_golden_data():
    assert len(set(map(tuple, CASES))) == len(CASES)
    assert set(GOLDEN) == set(map(tuple, CASES))


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_golden(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert run(argv) == GOLDEN[tuple(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    DATA.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {DATA}")
