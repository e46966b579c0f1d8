"""Command-line interface.

Subcommands: eig, det, charpoly, inverse, solve, cond, decay, repunit,
verify, bench.  Output goes to stdout in json, csv or plain form;
diagnostics go to stderr.  Exit status: 0 on success, 1 on domain errors
(non-symmetrisable input, singular matrix, not in the gapped regime,
overflow) and on a failed ``verify``, 2 on usage errors.

Serialisation rules: floats use the shortest round-trip representation,
exact integers and rationals are decimal strings ("1111", "-1/111"),
indices are 1-based, field order is fixed, so identical invocations
produce byte-identical output (bench timing columns excepted; pass
``--reps 0`` to suppress timing and keep bench deterministic too).

Every subcommand takes the parsed arguments and the spec that ``main``
resolved, and returns one ``_Answer``: the result dict, its plain lines
and, where needed, tolerances, a csv table, json meta or a spec echo.
``main`` alone prints it with ``_emit`` and sets the exit status.  json is
the spec echo, the result (non-finite floats as null) and a meta block;
csv is the result's fields as a header and one row, or a table for 1-based
vectors (one row per index), ``repunit inverse``, ``verify`` and
``bench``; plain is the subcommand's lines, or the csv for ``bench``.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import statistics
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from .cheby import ScaledValue
from .conditioning import weighted_condition
from .core import _check_singular_tol, make_spec, symmetrise
from .errors import SingularMatrix, TriToeplitzError
from .greens import (
    apply_inverse,
    build_kernel,
    decay_bound,
    decay_envelope,
    inverse_dense,
    inverse_entry,
    thomas_solve,
)
from .oracle import _logabsdet, dense_from_spec, dense_inverse, lu_solve
from .repunit import (
    cheb_repunit_identity_residual,
    cosine_product_log,
    repunit,
    repunit_condition,
    repunit_det_exact,
    repunit_inverse_entry,
)
from .spectral import (
    char_poly_eval,
    determinant,
    determinant_continuant,
    eigenvalues,
    eigenvector,
)

ORACLE_ENVELOPE = 200
DEFAULT_SINGULAR_TOL = 1e-12
DEFAULT_DENSE_LIMIT = 1024

_VERIFY_TOLS = {
    "similarity": 1e-12,
    "eigen": 1e-11,
    "determinant": 1e-9,
    "inverse": 1e-9,
    "wronskian": 1e-9,
    "conditioning": 1e-10,
    "repunit": 1e-10,
}


class _UsageError(Exception):
    pass


class _Answer(NamedTuple):
    """One subcommand's answer, which ``main`` prints with ``_emit``.

    ``plain`` None prints the csv; ``table`` None makes the csv the
    result's fields as one row; ``tolerances`` None is the singular
    tolerance alone where the subcommand takes --tol, and none else;
    ``echo`` None echoes the resolved spec.
    """

    result: dict
    plain: list | None = None
    tolerances: dict | None = None
    table: tuple | None = None
    meta: dict | None = None
    echo: dict | None = None


def _fmt(v) -> str:
    """Shortest round-trip float formatting; None (past the float range) is "overflow"."""
    return "overflow" if v is None else repr(float(v))


def _cell(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    raise TypeError(f"not JSON serialisable: {obj!r}")


def _sanitize(obj):
    """Replace non-finite floats with null so the JSON stays strict."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _emit(fmt: str, echo: dict, tolerances: dict, answer: _Answer) -> None:
    """Print one answer in ``fmt`` (rules in the module docstring)."""
    if fmt == "json":
        doc = {
            "spec": echo,
            "result": _sanitize(answer.result),
            "meta": {"version": __version__, **(answer.meta or {}),
                     "tolerances": tolerances},
        }
        print(json.dumps(doc, indent=2, default=_json_default))
    elif fmt == "plain" and answer.plain is not None:
        for line in answer.plain:
            print(line)
    else:
        header, rows = answer.table or (list(answer.result), [answer.result.values()])
        print(",".join(header))
        for row in rows:
            print(",".join(_cell(v) for v in row))


def _indexed(index: str, name: str, symbol: str, values):
    """A 1-based vector as floats, its csv table and its plain lines."""
    values = [float(v) for v in values]
    rows = list(enumerate(values, 1))
    lines = [f"{symbol}_{k} = {_fmt(v)}" for k, v in rows]
    return values, ([index, name], rows), lines


def _signed_log(sv: ScaledValue, lhs: str, log_name: str, zero: str = "") -> tuple:
    """The sign / log_abs / value result of ``sv`` and its plain line."""
    if sv.sign == 0:
        return {"sign": 0, "log_abs": None, "value": 0.0}, f"{lhs} = 0{zero}"
    value = sv.try_float()
    return ({"sign": sv.sign, "log_abs": sv.log_mag, "value": value},
            f"{lhs} = {_fmt(value)} (sign {sv.sign}, log|{log_name}| {_fmt(sv.log_mag)})")


def _solution(x, **fields) -> _Answer:
    """A solve's answer: ``fields``, then the solution vector."""
    x, table, plain = _indexed("i", "x", "x", x)
    return _Answer({**fields, "solution": x}, plain, table=table)


# ---------------------------------------------------------------------------
# spec plumbing

def _add_spec_args(sp, with_n=True):
    sp.add_argument("-a", type=float, default=None, help="subdiagonal entry")
    sp.add_argument("-b", type=float, default=None, help="diagonal entry")
    sp.add_argument("-c", type=float, default=None, help="superdiagonal entry")
    if with_n:
        sp.add_argument("-n", type=int, default=None, help="matrix order")
    sp.add_argument("--spec-file", default=None,
                    help="JSON file with a/b/c/n (accepts any subcommand's output)")


def _resolve_spec(args):
    """The spec from the flags over --spec-file; (a, b, c) for bench, None for repunit."""
    if not hasattr(args, "spec_file"):
        return None
    with_n = hasattr(args, "n")
    data = {}
    if args.spec_file:
        try:
            with open(args.spec_file) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read --spec-file: {exc}")
        if isinstance(data, dict) and isinstance(data.get("spec"), dict):
            data = data["spec"]
        if not isinstance(data, dict):
            raise _UsageError("--spec-file must contain a JSON object")
    fields = {k: data[k] for k in "abcn" if k in data}
    fields.update((k, v) for k in "abcn" if (v := getattr(args, k, None)) is not None)
    needed = "abcn" if with_n else "abc"
    missing = [k for k in needed if k not in fields]
    if missing:
        raise _UsageError(f"missing required parameters: {', '.join(missing)}")
    if with_n:
        return make_spec(fields["a"], fields["b"], fields["c"], int(fields["n"]))
    return float(fields["a"]), float(fields["b"]), float(fields["c"])


def _spec_echo(spec) -> dict:
    return {"a": spec.a, "b": spec.b, "c": spec.c, "n": spec.n,
            "symmetrisable": spec.symmetrisable}


def _parse_rhs(text: str, n: int) -> np.ndarray:
    try:
        vals = [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"--rhs must be a comma-separated float list: {exc}")
    if len(vals) != n:
        raise _UsageError(f"--rhs has {len(vals)} entries, expected n = {n}")
    return np.asarray(vals)


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed args and the resolved spec

def _cmd_eig(args, spec) -> _Answer:
    if args.k is None:
        vals, table, plain = _indexed("k", "eigenvalue", "lambda", eigenvalues(spec))
        return _Answer({"eigenvalues": vals}, plain, table=table)
    vec, table, plain = _indexed("j", "component", "v",
                                 eigenvector(spec, args.k, args.normalization))
    lam = float(eigenvalues(spec)[args.k - 1])
    result = {"k": args.k, "eigenvalue": lam,
              "normalization": args.normalization, "eigenvector": vec}
    return _Answer(result, [f"lambda_{args.k} = {_fmt(lam)}", *plain], table=table)


def _cmd_det(args, spec) -> _Answer:
    result, line = _signed_log(determinant(spec), "det", "det")
    return _Answer(result, [line])


def _cmd_charpoly(args, spec) -> _Answer:
    result, line = _signed_log(char_poly_eval(spec, args.t), f"charpoly({_fmt(args.t)})",
                               "chi", " (within tolerance)")
    return _Answer({"t": args.t, **result}, [line], {"charpoly_zero_tol": 1e-10})


def _cmd_inverse(args, spec) -> _Answer:
    entry_mode = args.i is not None or args.j is not None
    if entry_mode and args.rhs is not None:
        raise _UsageError("give either -i/-j or --rhs, not both")
    if not entry_mode and args.rhs is None:
        raise _UsageError("inverse needs -i and -j (one entry) or --rhs (apply)")
    if entry_mode and (args.i is None or args.j is None):
        raise _UsageError("both -i and -j are required for an entry")
    kernel = build_kernel(spec, singular_tol=args.tol)
    if not entry_mode:
        return _solution(apply_inverse(kernel, _parse_rhs(args.rhs, spec.n)))
    value = inverse_entry(kernel, args.i, args.j)
    return _Answer({"i": args.i, "j": args.j, "value": value},
                   [f"inverse[{args.i},{args.j}] = {_fmt(value)}"])


def _cmd_solve(args, spec) -> _Answer:
    rhs = _parse_rhs(args.rhs, spec.n)
    if args.method == "thomas":
        x = thomas_solve(spec, rhs)
    else:
        x = apply_inverse(build_kernel(spec, singular_tol=args.tol), rhs)
    return _solution(x, method=args.method)


def _cmd_cond(args, spec) -> _Answer:
    result = dataclasses.asdict(weighted_condition(spec, singular_tol=args.tol))
    plain = [f"{k} = {str(v).lower() if isinstance(v, bool) else _fmt(v)}"
             for k, v in result.items() if v is not None]
    return _Answer(result, plain)


def _cmd_decay(args, spec) -> _Answer:
    env = decay_envelope(spec)
    bound = decay_bound(spec, args.i, args.j)
    result = {"i": args.i, "j": args.j, "eta": env.eta,
              "prefactor": env.prefactor, "bound": bound}
    plain = [f"eta = {_fmt(env.eta)}", f"prefactor = {_fmt(env.prefactor)}",
             f"bound[{args.i},{args.j}] = {_fmt(bound)}"]
    return _Answer(result, plain, {})


def _cmd_repunit(args, _spec) -> _Answer:
    base = args.base
    if args.action == "value":
        rv = repunit(args.m, base)
        if args.exact and rv.exact_value is None:
            raise _UsageError("--exact needs a positive integer base")
        exact = None if rv.exact_value is None else str(rv.exact_value)
        result = {"m": args.m, "base": base, "exact": exact,
                  "value": rv.float_value}
        answer = _Answer(result, [exact if args.exact else _fmt(rv.float_value)])
    elif args.action == "det":
        exact = None
        if float(base).is_integer() and base >= 1:
            exact = str(repunit_det_exact(int(base), args.n))
        elif args.exact:
            raise _UsageError("--exact needs a positive integer base")
        fv = repunit(args.n + 1, base).float_value
        result = {"n": args.n, "base": base, "exact": exact, "value": fv}
        answer = _Answer(result, [exact if (args.exact and exact is not None) else _fmt(fv)])
    elif args.action == "product":
        lv = cosine_product_log(base, args.n)
        value = ScaledValue(1, lv).try_float()
        result = {"n": args.n, "base": base, "log_value": lv, "value": value}
        answer = _Answer(result, [f"log_value = {_fmt(lv)}", f"value = {_fmt(value)}"])
    elif args.action == "cond":
        value = repunit_condition(base, args.n)
        answer = _Answer({"n": args.n, "base": base, "value": value},
                         [f"cond = {_fmt(value)}"])
    elif args.action == "inverse":
        entry = repunit_inverse_entry(base, args.n, args.i, args.j)
        rational = str(entry.value)
        result = {"n": args.n, "base": base, "i": args.i, "j": args.j,
                  "sign": entry.sign, "rational": rational,
                  "value": entry.float_value}
        header = ["i", "j", "sign", "rational", "value"]
        answer = _Answer(result, [f"inverse[{args.i},{args.j}] = {rational} "
                                  f"({_fmt(entry.float_value)})"],
                         table=(header, [[result[k] for k in header]]))
    else:  # identity
        resid = cheb_repunit_identity_residual(base, args.m)
        answer = _Answer({"m": args.m, "base": base, "residual": resid},
                         [f"residual = {_fmt(resid)}"])
    # the actions of degree m echo it; those of order n echo their repunit matrix
    if hasattr(args, "m"):
        echo = {"base": base, "m": args.m}
    else:
        echo = {**_spec_echo(make_spec(base, base + 1.0, 1.0, args.n)), "base": base}
    return answer._replace(tolerances={}, echo=echo)


# ---------------------------------------------------------------------------
# verify

def _check(name, residual, tolerance):
    status = "PASS" if residual <= tolerance else "FAIL"
    return {"name": name, "residual": residual, "tolerance": tolerance,
            "status": status}


def _skip(name, reason):
    return {"name": name, "residual": None, "tolerance": None,
            "status": f"SKIP ({reason})"}


def _verify_checks(spec, singular_tol):
    checks = []
    form = symmetrise(spec)
    n, s, q = spec.n, form.s, form.q
    dense = dense_from_spec(spec)
    scale = spec.row_scale()

    # similarity: the conjugated off-diagonals must both equal s
    sim = max(abs(spec.c * q - s), abs(spec.a / q - s)) / s
    checks.append(_check("similarity", sim, _VERIFY_TOLS["similarity"]))

    # eigen residuals, on A when the raw q powers are representable,
    # otherwise on the symmetrised matrix
    k = np.arange(1, n + 1)
    theta = k * math.pi / (n + 1)
    lam = spec.b + 2.0 * s * np.cos(theta)
    sines = np.sin(np.outer(np.arange(1, n + 1), theta))
    with np.errstate(over="ignore"):
        qpow = np.power(q, np.arange(n, dtype=float))
    if np.all(np.isfinite(qpow)) and np.max(np.abs(qpow)) < 1e280:
        vecs = qpow[:, None] * sines
        mat = dense
    else:
        vecs = sines
        mat = dense_from_spec(make_spec(s, spec.b, s, n))
    resid = mat @ vecs - vecs * lam[None, :]
    eig_resid = float(
        np.max(np.max(np.abs(resid), axis=0)
               / (scale * np.max(np.abs(vecs), axis=0)))
    )
    checks.append(_check("eigen", eig_resid, _VERIFY_TOLS["eigen"]))

    # determinant: closed form vs continuant vs dense elimination
    det_closed = determinant(spec)
    det_cont = determinant_continuant(spec)
    osign, olog = _logabsdet(dense)
    if det_closed.sign == 0 or det_cont.sign == 0 or osign == 0.0:
        checks.append(_skip("determinant", "singular"))
    elif det_closed.sign != det_cont.sign or float(osign) != float(det_closed.sign):
        checks.append(_check("determinant", math.inf, _VERIFY_TOLS["determinant"]))
    else:
        anchor = max(1.0, abs(det_closed.log_mag))
        dresid = max(abs(det_closed.log_mag - det_cont.log_mag),
                     abs(det_closed.log_mag - olog)) / anchor
        checks.append(_check("determinant", dresid, _VERIFY_TOLS["determinant"]))

    # inverse kernel vs dense inverse, plus the Wronskian constancy
    kernel = build_kernel(spec, singular_tol=singular_tol)
    if not kernel.invertible:
        checks.append(_skip("inverse", "singular"))
        checks.append(_skip("wronskian", "singular"))
    else:
        try:
            kinv = inverse_dense(kernel)
            dinv = dense_inverse(dense)
            iresid = float(np.max(np.abs(kinv - dinv)) / np.max(np.abs(dinv)))
            checks.append(_check("inverse", iresid, _VERIFY_TOLS["inverse"]))
        except (SingularMatrix, OverflowError) as exc:
            checks.append(_skip("inverse", type(exc).__name__))
        checks.append(_check("wronskian", kernel.wronskian_residual,
                             _VERIFY_TOLS["wronskian"]))

    # weighted conditioning vs a dense symmetric eigensolve
    try:
        rep = weighted_condition(spec, singular_tol=singular_tol)
    except SingularMatrix:
        checks.append(_skip("conditioning", "singular"))
    else:
        lam_dense = np.linalg.eigvalsh(dense_from_spec(make_spec(s, spec.b, s, n)))
        dense_ratio = float(np.max(np.abs(lam_dense)) / np.min(np.abs(lam_dense)))
        cresid = abs(rep.cond_weighted / dense_ratio - 1.0)
        checks.append(_check("conditioning", cresid, _VERIFY_TOLS["conditioning"]))

    # repunit identities when the spec is the repunit matrix with integer base
    if spec.c == 1.0 and float(spec.a).is_integer() and spec.a >= 1.0 \
            and spec.b == spec.a + 1.0:
        d = int(spec.a)
        exact_ok = repunit_det_exact(d, n) == repunit(n + 1, d).exact_value
        rresid = 0.0 if exact_ok else math.inf
        if kernel.invertible:
            for (ii, jj) in {(1, 1), (1, n), (n, 1)}:
                exact = repunit_inverse_entry(d, n, ii, jj).float_value
                got = inverse_entry(kernel, ii, jj)
                rresid = max(rresid, abs(got - exact) / max(abs(exact), 1e-300))
        checks.append(_check("repunit", rresid, _VERIFY_TOLS["repunit"]))

    return checks


def _cmd_verify(args, spec) -> _Answer:
    if spec.n > ORACLE_ENVELOPE:
        raise _UsageError(f"verify is limited to the oracle envelope n <= {ORACLE_ENVELOPE}")
    checks = _verify_checks(spec, args.tol)
    failed = any(c["status"] == "FAIL" for c in checks)
    result = {"checks": checks, "overall": "FAIL" if failed else "PASS"}
    width = max(len(c["name"]) for c in checks)
    plain = [f"{c['name']:<{width}}  " + ("" if c["residual"] is None else
             f"residual {_fmt(c['residual'])}  tol {_fmt(c['tolerance'])}  ")
             + c["status"] for c in checks]
    plain.append(f"overall: {result['overall']}")
    table = (["check", "residual", "tolerance", "status"],
             [c.values() for c in checks])
    return _Answer(result, plain, table=table)


# ---------------------------------------------------------------------------
# bench

def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _cmd_bench(args, abc) -> _Answer:
    a, b, c = abc
    try:
        grid = [int(t) for t in args.grid.split(",")]
    except ValueError as exc:
        raise _UsageError(f"--grid must be a comma-separated int list: {exc}")
    if args.reps < 0:
        raise _UsageError("--reps must be >= 0")

    rows = []
    for n in grid:
        spec = make_spec(a, b, c, n)
        rhs = np.random.default_rng(1800 + n).standard_normal(n)
        # the solvers that apply to this row, each with the errors that
        # blank its column (any other error propagates)
        solvers = {}
        if spec.symmetrisable and symmetrise(spec).x > 1.0:
            kernel = build_kernel(spec, singular_tol=args.tol)
            if kernel.invertible:
                solvers["apply_inverse"] = (lambda: apply_inverse(kernel, rhs), ())
        solvers["thomas"] = (lambda: thomas_solve(spec, rhs), TriToeplitzError)
        if n <= args.dense_limit:
            dense = dense_from_spec(spec)
            solvers["dense"] = (lambda: lu_solve(dense, rhs), SingularMatrix)

        solutions, times = [], {}
        for name, (solve, blanks) in solvers.items():
            try:
                solutions.append(solve())
                if args.reps:
                    times[name] = _median_ms(solve, args.reps)
            except blanks:
                pass

        disc = None
        if len(solutions) >= 2:
            norm = max(float(np.max(np.abs(x))) for x in solutions)
            disc = max(0.0, *(float(np.max(np.abs(u - v)))
                              for u, v in itertools.combinations(solutions, 2)))
            disc /= max(norm, 1e-300)
        rows.append({"n": n, **{f"{name}_ms": times.get(name)
                                for name in ("apply_inverse", "thomas", "dense")},
                     "max_discrepancy": disc})

    return _Answer({"rows": rows}, table=(list(rows[0]), [row.values() for row in rows]),
                   meta={"grid": grid, "reps": args.reps, "dense_limit": args.dense_limit},
                   echo={"a": a, "b": b, "c": c})


# ---------------------------------------------------------------------------
# parser

_FORMATS = ("json", "csv", "plain")

# --tol, for the subcommands whose answer depends on it
_TOL = ("--tol", {"type": float, "default": DEFAULT_SINGULAR_TOL,
                  "help": f"singularity tolerance (default {DEFAULT_SINGULAR_TOL})"})

# (name, handler, help, arguments between the spec and --format)
_COMMANDS = (
    ("eig", _cmd_eig, "eigenvalues (all) or one eigenvector (-k)", (
        ("-k", {"type": int, "help": "eigenpair index (1-based)"}),
        ("--normalization", {"choices": ("raw", "unit_weighted", "unit_euclidean"),
                             "default": "raw"}),
    )),
    ("det", _cmd_det, "determinant (sign, log-magnitude, value)", ()),
    ("charpoly", _cmd_charpoly, "characteristic polynomial at t", (
        ("-t", {"type": float, "required": True, "help": "evaluation point"}),
    )),
    ("inverse", _cmd_inverse, "one inverse entry (-i -j) or apply (--rhs)", (
        _TOL, ("-i", {"type": int}), ("-j", {"type": int}),
        ("--rhs", {"help": "comma-separated right-hand side"}),
    )),
    ("solve", _cmd_solve, "solve A x = rhs", (
        _TOL,
        ("--rhs", {"required": True, "help": "comma-separated right-hand side"}),
        ("--method", {"choices": ("thomas", "kernel"), "default": "thomas"}),
    )),
    ("cond", _cmd_cond, "weighted condition number report", (_TOL,)),
    ("decay", _cmd_decay, "inverse-entry decay bound (needs x > 1)", (
        ("-i", {"type": int, "required": True}), ("-j", {"type": int, "required": True}),
    )),
    ("repunit", _cmd_repunit, "repunit identities (exact for integer bases)", ()),
    ("verify", _cmd_verify, "oracle cross-checks for one spec (n <= 200)", (_TOL,)),
    ("bench", _cmd_bench, "timing table: apply_inverse / thomas / dense", (
        _TOL,
        ("--grid", {"required": True, "help": "comma-separated orders, e.g. 64,256"}),
        ("--reps", {"type": int, "default": 9,
                    "help": "timing repetitions (median reported); 0 = no timing, "
                            "deterministic output"}),
        ("--dense-limit", {"type": int, "default": DEFAULT_DENSE_LIMIT,
                           "help": "skip the dense baseline above this order"}),
    )),
)

# repunit action: its integer arguments
_REPUNIT_ACTIONS = {"value": "m", "det": "n", "product": "n", "cond": "n",
                    "inverse": "nij", "identity": "m"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritoep",
        description="Closed-form spectra, determinants, inverses and "
                    "conditioning of tridiagonal Toeplitz matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, helptext, extra in _COMMANDS:
        sp = sub.add_parser(name, help=helptext)
        if func is _cmd_repunit:
            rsub = sp.add_subparsers(dest="action", required=True)
            for action, ints in _REPUNIT_ACTIONS.items():
                rp = rsub.add_parser(action)
                rp.add_argument("--base", type=float, required=True,
                                help="repunit base d > 0")
                for arg in ints:
                    rp.add_argument(f"-{arg}", type=int, required=True)
                if action in ("value", "det"):
                    rp.add_argument("--exact", action="store_true",
                                    help="print the exact decimal string (integer base only)")
                rp.add_argument("--format", choices=_FORMATS, default="plain")
                rp.set_defaults(func=func)
            continue
        _add_spec_args(sp, with_n=name != "bench")
        for flag, kwargs in extra:
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--format", choices=_FORMATS,
                        default="csv" if name == "bench" else "plain")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec = _resolve_spec(args)
        if hasattr(args, "tol"):
            # before dispatch, so a subcommand that may not read it refuses it too
            _check_singular_tol(args.tol)
        answer = args.func(args, spec)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TriToeplitzError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    echo = _spec_echo(spec) if answer.echo is None else answer.echo
    if answer.tolerances is not None:
        tolerances = answer.tolerances
    else:
        tolerances = {"singular_tol": args.tol} if hasattr(args, "tol") else {}
    _emit(args.format, echo, tolerances, answer)
    return 1 if answer.result.get("overall") == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
