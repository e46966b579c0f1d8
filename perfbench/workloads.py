"""The three workloads: generated inputs, one request, and its output check.

Every workload draws its whole plan of requests from the seed before
anything is timed.  Right-hand sides are materialised from a per-request
seed just before the request, outside its timed span.  The program only
ever sees these generated inputs.

* ``solve_stream`` -- fresh spec at n = 10^5, solved by the Green kernel
  (build_kernel + apply_inverse) and by thomas_solve, in a seeded order.
* ``query_mix`` -- one cheap query per request on a fresh spec with n
  log-uniform in [8, 4096].
* ``cli_calls`` -- one ``python -m tritoep`` process per request.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tritoep import (
    TriToeplitzError,
    apply_inverse,
    build_kernel,
    char_poly_eval,
    decay_bound,
    decay_envelope,
    determinant,
    eigenvalues,
    eigenvector,
    eval_U_scaled,
    extremal_eigenvalues,
    inverse_entry,
    make_spec,
    repunit,
    repunit_det_exact,
    repunit_inverse_entry,
    symmetrise,
    thomas_solve,
    weighted_condition,
)
from tritoep.cheby import _u_sequence_arrays

from . import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SOLVE_N = 100_000
MIX_N = (8, 4096)
# the comma-separated --rhs list hits the per-argument limit near n = 3e4;
# from n = 1000 on, parsing it and printing the solution are a visible
# share of the call, and the solve classes stay alike from run to run
CLI_RHS_N = (1000, 4000)
CLI_EIG_N = 2000
CLI_VERIFY_N = 200
REPUNIT_BASES = (1, 12)
NEG_Q_SHARE = 0.2
LOG_Q_SPAN = 40.0
# drawn x stay this share of the gap between neighbouring singular points
# cos(k pi/(n+1)) away from the nearest one (see _clear_of_singular)
SINGULAR_MARGIN = 0.25

REGIMES = ("gapped", "oscillatory", "confluent")
QUERY_KINDS = ("det", "charpoly", "eig", "eigvec", "cond", "entry", "decay",
               "solve_kernel", "solve_thomas")
CLI_KINDS = ("eig", "det", "charpoly", "entry", "apply", "solve_kernel",
             "solve_thomas", "cond", "decay", "repunit_det", "repunit_inverse",
             "verify")
FORMATS = ("json", "csv", "plain")
# which end-to-end solve class a request kind belongs to
SOLVE_CLASS = {"solve_kernel": "kernel", "apply": "kernel", "solve_thomas": "thomas"}
KINDS_WITH_RHS = ("solve_kernel", "solve_thomas", "apply")
# the program's typed errors; anything else is a defect in the benchmark
TYPED_ERRORS = (TriToeplitzError, OverflowError)


@dataclass
class Request:
    """One generated request; ``rhs`` is filled in just before it runs."""

    index: int
    kind: str
    a: float
    b: float
    c: float
    n: int
    i: int = 1
    j: int = 1
    t: float = 0.0
    base: int = 1
    fmt: str = "plain"
    rhs_seed: int = 0
    kernel_first: bool = True
    rhs: np.ndarray | None = None


class Failure(Exception):
    """A request failed; ``kind`` is 'typed', 'nonfinite' or 'check'."""

    def __init__(self, kind: str, reason: str):
        super().__init__(reason)
        self.kind = kind


# ---------------------------------------------------------------------------
# input generation


def _log_uniform_int(rng, lo, hi, size):
    """Integers log-uniform in [lo, hi]; the bounds may be arrays."""
    return np.minimum(np.exp(rng.uniform(np.log(lo), np.log(hi + 1), size)).astype(int), hi)


def _clear_of_singular(x, n):
    """Move each x off the singular points cos(k pi/(n+1)), k = 1..n.

    With phi = arccos(x)(n+1)/pi and d its distance to the nearest
    singular k, d in [-1/2, 1/2] is squeezed into SINGULAR_MARGIN <= |d|
    <= 1/2, so every draw is kept and stays in its regime.  x >= 1, and
    x whose nearest k is 0 or n+1 (the non-singular ends x = 1 and -1),
    are left as drawn.
    """
    phi = np.arccos(np.clip(x, -1.0, 1.0)) * (n + 1) / math.pi
    k = np.rint(phi)
    d = phi - k
    side = np.where(d < 0, -1.0, 1.0)
    squeezed = k + side * (SINGULAR_MARGIN + (1.0 - 2.0 * SINGULAR_MARGIN) * np.abs(d))
    near = (x < 1.0) & (k >= 1) & (k <= n)
    return np.where(near, np.cos(squeezed * math.pi / (n + 1)), x)


def _spec_params(rng, n, regime):
    """(a, b, c) arrays with s in [0.5, 2], log|q|(n-1) in [-40, 40], x by regime."""
    size = len(n)
    x = np.where(regime == 0, rng.uniform(1.05, 3.0, size),
                 np.where(regime == 1, rng.uniform(-0.95, 0.95, size),
                          1.0 + rng.uniform(-1e-9, 1e-9, size)))
    x = _clear_of_singular(x, n)
    s = rng.uniform(0.5, 2.0, size)
    q = np.exp(rng.uniform(-LOG_Q_SPAN, LOG_Q_SPAN, size) / np.maximum(n - 1, 1))
    q = np.where(rng.random(size) < NEG_Q_SHARE, -q, q)
    return s * q, 2.0 * s * x, s / q


def _charpoly_points(rng, a, b, c, n):
    """t at a mid-gap of the spectrum (half the draws) or outside it."""
    size = len(n)
    s = np.sqrt(a * c)
    k = np.floor(rng.uniform(1.0, np.maximum(n, 2), size))
    phi = (k + 0.5 + rng.uniform(-0.25, 0.25, size)) * math.pi / (n + 1)
    inside = b + 2.0 * s * np.cos(phi)
    edge = 2.0 * s * np.cos(math.pi / (n + 1))
    side = np.where(rng.random(size) < 0.5, 1.0, -1.0)
    outside = b + side * (edge + s * rng.uniform(0.1, 2.0, size))
    return np.where(rng.random(size) < 0.5, inside, outside)


class Plan:
    """Column arrays of generated requests; ``request(i)`` builds the i-th."""

    def __init__(self, kinds, kind_idx, n, a, b, c, i, j, t, base, fmt, seeds, coin):
        self.kinds = kinds
        self.cols = (kind_idx, n, a, b, c, i, j, t, base, fmt, seeds, coin)
        self.size = len(n)

    def request(self, index: int) -> Request:
        k, n, a, b, c, i, j, t, base, fmt, seeds, coin = (col[index % self.size] for col in self.cols)
        return Request(index, self.kinds[int(k)], float(a), float(b), float(c), int(n),
                       int(i), int(j), float(t), int(base), FORMATS[int(fmt)],
                       int(seeds), bool(coin))


def _draw(rng, kinds, kind_idx, n, regime):
    size = len(n)
    a, b, c = _spec_params(rng, n, regime)
    i = np.floor(rng.uniform(1.0, n + 1, size)).astype(int)
    j = np.floor(rng.uniform(1.0, n + 1, size)).astype(int)
    t = _charpoly_points(rng, a, b, c, n)
    base = rng.integers(REPUNIT_BASES[0], REPUNIT_BASES[1] + 1, size)
    fmt = rng.integers(0, len(FORMATS), size)
    seeds = rng.integers(0, 2**63, size)
    coin = rng.random(size) < 0.5
    return Plan(kinds, kind_idx, n, a, b, c, i, j, t, base, fmt, seeds, coin)


def _stratified(rng, groups, size):
    """Shuffled rounds that each hold every group once: uniform shares, full coverage."""
    rounds = -(-size // groups)
    return np.concatenate([rng.permutation(groups) for _ in range(rounds)])[:size]


def solve_stream_plan(seed: int, size: int = 4096) -> Plan:
    rng = np.random.default_rng([seed, 1])
    n = np.full(size, SOLVE_N)
    regime = _stratified(rng, len(REGIMES), size)
    kind_idx = np.zeros(size, dtype=int)
    return _draw(rng, ("solve_pair",), kind_idx, n, regime)


def query_mix_plan(seed: int, size: int = 1 << 17) -> Plan:
    rng = np.random.default_rng([seed, 2])
    kind_idx = rng.integers(0, len(QUERY_KINDS), size)
    n = _log_uniform_int(rng, MIX_N[0], MIX_N[1], size)
    regime = rng.integers(0, len(REGIMES), size)
    regime = np.where(kind_idx == QUERY_KINDS.index("decay"), 0, regime)
    return _draw(rng, QUERY_KINDS, kind_idx, n, regime)


def cli_calls_plan(seed: int, size: int = 4096) -> Plan:
    rng = np.random.default_rng([seed, 3])
    # two subcommands reach the kernel solve and one reaches Thomas: a second
    # Thomas call per round gives both solve classes the same sample count
    rounds = np.append(np.arange(len(CLI_KINDS)), CLI_KINDS.index("solve_thomas"))
    kind_idx = rounds[_stratified(rng, len(rounds), size)]
    names = np.asarray(CLI_KINDS)[kind_idx]
    rhs = np.isin(names, KINDS_WITH_RHS)
    lo = np.where(rhs, CLI_RHS_N[0], MIX_N[0])
    hi = np.where(names == "eig", CLI_EIG_N,
                  np.where(rhs, CLI_RHS_N[1],
                           np.where(names == "verify", CLI_VERIFY_N, MIX_N[1])))
    n = _log_uniform_int(rng, lo, hi, size)
    regime = rng.integers(0, len(REGIMES), size)
    regime = np.where(names == "decay", 0, regime)
    plan = _draw(rng, CLI_KINDS, kind_idx, n, regime)
    # repunit kinds use the repunit matrix (a, b, c) = (d, d + 1, 1)
    _, _, a, b, c, *_ = plan.cols
    base = plan.cols[8].astype(float)
    rep = np.isin(names, ("repunit_det", "repunit_inverse"))
    a[rep], b[rep], c[rep] = base[rep], base[rep] + 1.0, 1.0
    return plan


def materialise(req: Request) -> Request:
    """Draw the request's right-hand side from its own seed (outside timing)."""
    if req.kind in KINDS_WITH_RHS or req.kind == "solve_pair":
        req.rhs = np.random.default_rng(req.rhs_seed).standard_normal(req.n)
    return req


# ---------------------------------------------------------------------------
# calls into the program


def run_kind(req: Request, spec, call):
    """The library call behind one query kind, through ``call`` (traced or not)."""
    n, kind = spec.n, req.kind
    if kind == "det":
        return call("spectral.determinant", n, determinant, spec)
    if kind == "charpoly":
        return call("spectral.char_poly_eval", n, char_poly_eval, spec, req.t)
    if kind == "eig":
        return call("spectral.eigenvalues", n, eigenvalues, spec)
    if kind == "eigvec":
        return call("spectral.eigenvector", n, eigenvector, spec, req.j, "unit_weighted")
    if kind == "cond":
        return call("conditioning.weighted_condition", n, weighted_condition, spec)
    if kind == "entry":
        kernel = call("greens.build_kernel", n, build_kernel, spec)
        return call("greens.inverse_entry", n, inverse_entry, kernel, req.i, req.j)
    if kind == "decay":
        return call("greens.decay_bound", n, decay_bound, spec, req.i, req.j)
    if kind in ("solve_kernel", "apply"):
        kernel = call("greens.build_kernel", n, build_kernel, spec)
        return call("greens.apply_inverse", n, apply_inverse, kernel, req.rhs)
    if kind == "solve_thomas":
        return call("greens.thomas_solve", n, thomas_solve, spec, req.rhs)
    if kind == "repunit_det":
        return call("repunit.repunit_det_exact", n, repunit_det_exact, req.base, n)
    if kind == "repunit_inverse":
        return call("repunit.repunit_inverse_entry", n, repunit_inverse_entry,
                    req.base, n, req.i, req.j)
    if kind == "verify":
        from tritoep import cli

        return call("cli.verify_checks", n, cli._verify_checks, spec, cli.DEFAULT_SINGULAR_TOL)
    raise ValueError(f"unknown request kind {kind!r}")


def _finite(value) -> bool:
    if isinstance(value, np.ndarray):
        return bool(np.all(np.isfinite(value)))
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def check_solution(spec, x, rhs) -> None:
    if not _finite(x):
        raise Failure("nonfinite", "solution has non-finite entries")
    reason = checks.check_solve(spec, x, rhs)
    if reason:
        raise Failure("check", reason)


def check_kind(req: Request, spec, result) -> None:
    """Raise Failure unless ``result`` passes its independent check."""
    if not _finite(result):
        raise Failure("nonfinite", f"{req.kind} returned non-finite values")
    kind = req.kind
    if kind == "det":
        reason = checks.check_determinant(spec, result)
    elif kind == "charpoly":
        reason = checks.check_char_poly(spec, req.t, result)
    elif kind == "eig":
        reason = checks.check_eigenvalues(spec, result, extremal_eigenvalues(spec))
    elif kind == "eigvec":
        reason = checks.check_eigenvector(spec, req.j, result)
    elif kind == "cond":
        reason = checks.check_condition(spec, result)
    elif kind == "entry":
        reason = checks.check_inverse_entry(spec, req.i, req.j, result)
    elif kind == "decay":
        reason = checks.check_decay_bound(spec, req.i, req.j, result)
    elif kind in KINDS_WITH_RHS:
        reason = checks.check_solve(spec, result, req.rhs)
    elif kind == "repunit_det":
        reason = checks.check_repunit_det(req.base, spec.n, str(result))
    elif kind == "repunit_inverse":
        reason = checks.check_repunit_inverse(spec, req.base, req.i, req.j, result.value)
    elif kind == "verify":
        failed = [c["name"] for c in result if c["status"] == "FAIL"]
        reason = f"verify checks failed: {failed}" if failed else None
    else:
        raise ValueError(f"unknown request kind {kind!r}")
    if reason:
        raise Failure("check", reason)


# ---------------------------------------------------------------------------
# the CLI


def _num(flag: str, value: float) -> str:
    # attached form, so a negative value in exponent notation is not taken for a flag
    return f"{flag}{value!r}"


def cli_argv(req: Request) -> list[str]:
    """The ``tritoep`` arguments that ask the CLI for the request's result."""
    kind, n = req.kind, str(req.n)
    spec = [_num("-a", req.a), _num("-b", req.b), _num("-c", req.c), "-n", n]
    fmt = ["--format", req.fmt]
    if kind == "repunit_det":
        return ["repunit", "det", "--base", str(req.base), "-n", n, "--exact", *fmt]
    if kind == "repunit_inverse":
        return ["repunit", "inverse", "--base", str(req.base), "-n", n,
                "-i", str(req.i), "-j", str(req.j), *fmt]
    if kind in KINDS_WITH_RHS:
        rhs = "--rhs=" + ",".join(repr(float(v)) for v in req.rhs)
        if kind == "apply":
            return ["inverse", *spec, rhs, *fmt]
        method = "kernel" if kind == "solve_kernel" else "thomas"
        return ["solve", *spec, rhs, "--method", method, *fmt]
    extra = {
        "eig": ["eig"],
        "eigvec": ["eig", "-k", str(req.j), "--normalization", "unit_weighted"],
        "det": ["det"],
        "charpoly": ["charpoly", _num("-t", req.t)],
        "cond": ["cond"],
        "entry": ["inverse", "-i", str(req.i), "-j", str(req.j)],
        "decay": ["decay", "-i", str(req.i), "-j", str(req.j)],
        "verify": ["verify"],
    }[kind]
    return [*extra, *spec, *fmt]


def cli_compute(req: Request, call):
    """The library calls ``tritoep.cli.main`` makes for the request, without parsing or output."""
    spec = make_spec(req.a, req.b, req.c, req.n)
    result = run_kind(req, spec, call)
    if req.kind == "decay":
        call("greens.decay_envelope", req.n, decay_envelope, spec)
    elif req.kind == "eigvec":
        call("spectral.eigenvalues", req.n, eigenvalues, spec)
    elif req.kind == "repunit_det":
        call("repunit.repunit", req.n, repunit, req.n + 1, req.base)
    return spec, result


def cli_main(argv: list[str]) -> tuple[int, str]:
    """Run ``tritoep.cli.main`` in this process and capture what it prints."""
    from tritoep.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cli_process(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "tritoep", *argv], env=env,
                          cwd=str(ROOT), capture_output=True, timeout=120, check=False)


def expected_json(req: Request, result) -> dict:
    """Fields of the CLI's json ``result`` that must equal the library's values."""
    kind = req.kind
    if kind in ("det", "charpoly"):
        zero = result.sign == 0
        return {"sign": result.sign, "log_abs": None if zero else result.log_mag,
                "value": 0.0 if zero else result.try_float()}
    if kind == "eig":
        return {"eigenvalues": [float(v) for v in result]}
    if kind in ("entry", "decay"):
        return {"value" if kind == "entry" else "bound": result}
    if kind in KINDS_WITH_RHS:
        return {"solution": [float(v) for v in result]}
    if kind == "cond":
        return {"cond_weighted": result.cond_weighted, "lambda_max": result.lambda_max,
                "lambda_min": result.lambda_min}
    if kind == "repunit_det":
        return {"exact": str(result)}
    if kind == "repunit_inverse":
        return {"rational": str(result.value), "value": result.float_value}
    return {"overall": "PASS"}


def check_cli(req: Request, stdout: bytes, main_out: str, spec, result) -> None:
    """Process output equals in-process main() byte for byte; json equals the library."""
    if stdout != main_out.encode():
        raise Failure("check", "process stdout differs from in-process main()")
    if req.fmt == "json":
        got = json.loads(main_out)["result"]
        for key, want in expected_json(req, result).items():
            if got.get(key) != want:
                raise Failure("check", f"json field {key!r} differs from the library")
    check_kind(req, spec, result)


# ---------------------------------------------------------------------------
# per-layer probe and set-up


def probe_layers(req: Request, spec, call) -> None:
    """Time each closed form once on the request's spec (traced runs only).

    A typed error here is kept on its span and does not fail the request.
    """
    n = spec.n
    form = symmetrise(spec)
    probes = [
        ("core.make_spec", make_spec, spec.a, spec.b, spec.c, n),
        ("core.symmetrise", symmetrise, spec),
        ("cheby.eval_U_scaled", eval_U_scaled, n, form.x),
        ("spectral.determinant", determinant, spec),
        ("spectral.char_poly_eval", char_poly_eval, spec, req.t),
        ("spectral.eigenvalues", eigenvalues, spec),
        ("spectral.eigenvector", eigenvector, spec, req.j, "unit_weighted"),
        ("conditioning.weighted_condition", weighted_condition, spec),
    ]
    if form.x > 1.0:
        probes.append(("greens.decay_bound", decay_bound, spec, req.i, req.j))
    for name, fn, *args in probes:
        try:
            call(name, n, fn, *args)
        except TYPED_ERRORS:
            pass


def u_sequence(n: int, x: float, call):
    return call("cheby.u_sequence", n + 1, _u_sequence_arrays, n, x)


def setup(workload: str) -> None:
    """Import the program and make one warm-up call per function the workload uses."""
    spec = make_spec(1.0, 3.0, 1.0, 8)
    rhs = np.ones(8)
    apply_inverse(build_kernel(spec), rhs)
    thomas_solve(spec, rhs)
    if workload == "solve_stream":
        return
    determinant(spec)
    char_poly_eval(spec, 0.5)
    eigenvalues(spec)
    eigenvector(spec, 2, "unit_weighted")
    weighted_condition(spec)
    inverse_entry(build_kernel(spec), 1, 2)
    decay_bound(spec, 1, 2)
    if workload == "query_mix":
        return
    warm = Request(0, "", 1.0, 3.0, 1.0, 8, i=1, j=2, t=0.5, base=10, rhs=rhs)
    for kind in CLI_KINDS:
        warm.kind = kind
        cli_main(cli_argv(warm))
