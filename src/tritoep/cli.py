"""Command-line interface.

Subcommands: eig, det, charpoly, inverse, solve, cond, decay, repunit,
verify, bench.  Output goes to stdout in json, csv or plain form;
diagnostics go to stderr.  Exit status: 0 on success, 1 on domain errors
(non-symmetrisable input, singular matrix, not in the gapped regime,
overflow), 2 on usage errors.

Serialisation rules: floats use the shortest round-trip representation,
exact integers and rationals are decimal strings ("1111", "-1/111"),
indices are 1-based, field order is fixed, so identical invocations
produce byte-identical output (bench timing columns excepted; pass
``--reps 0`` to suppress timing and keep bench deterministic too).

Every subcommand builds one result dict plus its plain lines, and
``_emit`` derives all three formats from them: json is the spec echo,
the result (non-finite floats as null) and a meta block; csv is the
result's fields as a header and one row, or a table for 1-based vectors
(one row per index), ``repunit inverse``, ``verify`` and ``bench``; plain
is the subcommand's lines, or the csv for ``bench``, which has none.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

import numpy as np

from . import __version__
from .cheby import ScaledValue
from .conditioning import weighted_condition
from .core import make_spec, symmetrise
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


def _fmt(v) -> str:
    """Shortest round-trip float formatting."""
    return repr(float(v))


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


def _emit(args, spec_echo: dict, result: dict, tolerances: dict,
          plain: list | None = None, table=None, meta: dict | None = None) -> int:
    """Print one subcommand's result in ``args.format`` (rules in the module docstring)."""
    if args.format == "json":
        doc = {
            "spec": spec_echo,
            "result": _sanitize(result),
            "meta": {"version": __version__, **(meta or {}), "tolerances": tolerances},
        }
        print(json.dumps(doc, indent=2, default=_json_default))
        return 0
    if args.format == "plain" and plain is not None:
        for line in plain:
            print(line)
        return 0
    header, rows = table if table is not None else (list(result), [result.values()])
    print(",".join(header))
    for row in rows:
        print(",".join(_cell(v) for v in row))
    return 0


def _indexed(index: str, name: str, symbol: str, values):
    """A 1-based vector as floats, its csv table and its plain lines."""
    values = [float(v) for v in values]
    rows = list(enumerate(values, 1))
    lines = [f"{symbol}_{k} = {_fmt(v)}" for k, v in rows]
    return values, ([index, name], rows), lines


def _fmt_or_overflow(value) -> str:
    return "overflow" if value is None else _fmt(value)


def _scaled_result(sv: ScaledValue) -> dict:
    if sv.sign == 0:
        return {"sign": 0, "log_abs": None, "value": 0.0}
    return {"sign": sv.sign, "log_abs": sv.log_mag, "value": sv.try_float()}


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
    sp.add_argument("--tol", type=float, default=None,
                    help=f"singularity tolerance (default {DEFAULT_SINGULAR_TOL})")


def _add_format_arg(sp, default="plain"):
    sp.add_argument("--format", choices=("json", "csv", "plain"), default=default)


def _resolve_spec(args, with_n=True):
    fields = {}
    if getattr(args, "spec_file", None):
        try:
            with open(args.spec_file) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read --spec-file: {exc}")
        if isinstance(data, dict) and isinstance(data.get("spec"), dict):
            data = data["spec"]
        if not isinstance(data, dict):
            raise _UsageError("--spec-file must contain a JSON object")
        for key in ("a", "b", "c", "n"):
            if key in data:
                fields[key] = data[key]
    for key in ("a", "b", "c", "n"):
        v = getattr(args, key, None)
        if v is not None:
            fields[key] = v
    needed = ("a", "b", "c", "n") if with_n else ("a", "b", "c")
    missing = [k for k in needed if k not in fields]
    if missing:
        raise _UsageError(f"missing required parameters: {', '.join(missing)}")
    if with_n:
        return make_spec(fields["a"], fields["b"], fields["c"], int(fields["n"]))
    return float(fields["a"]), float(fields["b"]), float(fields["c"])


def _spec_echo(spec) -> dict:
    return {"a": spec.a, "b": spec.b, "c": spec.c, "n": spec.n,
            "symmetrisable": spec.symmetrisable}


def _singular_tol(args) -> float:
    return args.tol if getattr(args, "tol", None) is not None else DEFAULT_SINGULAR_TOL


def _parse_rhs(text: str, n: int) -> np.ndarray:
    try:
        vals = [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"--rhs must be a comma-separated float list: {exc}")
    if len(vals) != n:
        raise _UsageError(f"--rhs has {len(vals)} entries, expected n = {n}")
    return np.asarray(vals)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_eig(args) -> int:
    spec = _resolve_spec(args)
    tols = {"singular_tol": _singular_tol(args)}
    if args.k is None:
        vals, table, plain = _indexed("k", "eigenvalue", "lambda", eigenvalues(spec))
        return _emit(args, _spec_echo(spec), {"eigenvalues": vals}, tols, plain, table)
    vec, table, plain = _indexed(
        "j", "component", "v", eigenvector(spec, args.k, args.normalization)
    )
    lam = float(eigenvalues(spec)[args.k - 1])
    result = {"k": args.k, "eigenvalue": lam,
              "normalization": args.normalization, "eigenvector": vec}
    return _emit(args, _spec_echo(spec), result, tols,
                 [f"lambda_{args.k} = {_fmt(lam)}", *plain], table)


def _cmd_det(args) -> int:
    spec = _resolve_spec(args)
    sv = determinant(spec)
    result = _scaled_result(sv)
    if sv.sign == 0:
        plain = ["det = 0"]
    else:
        plain = [
            f"det = {_fmt_or_overflow(result['value'])} "
            f"(sign {sv.sign}, log|det| {_fmt(sv.log_mag)})"
        ]
    return _emit(args, _spec_echo(spec), result,
                 {"singular_tol": _singular_tol(args)}, plain)


def _cmd_charpoly(args) -> int:
    spec = _resolve_spec(args)
    sv = char_poly_eval(spec, args.t)
    result = {"t": args.t, **_scaled_result(sv)}
    if sv.sign == 0:
        plain = [f"charpoly({_fmt(args.t)}) = 0 (within tolerance)"]
    else:
        plain = [
            f"charpoly({_fmt(args.t)}) = {_fmt_or_overflow(result['value'])} "
            f"(sign {sv.sign}, log|chi| {_fmt(sv.log_mag)})"
        ]
    return _emit(args, _spec_echo(spec), result, {"charpoly_zero_tol": 1e-10}, plain)


def _cmd_inverse(args) -> int:
    spec = _resolve_spec(args)
    tol = _singular_tol(args)
    entry_mode = args.i is not None or args.j is not None
    if entry_mode and args.rhs is not None:
        raise _UsageError("give either -i/-j or --rhs, not both")
    if not entry_mode and args.rhs is None:
        raise _UsageError("inverse needs -i and -j (one entry) or --rhs (apply)")
    if entry_mode and (args.i is None or args.j is None):
        raise _UsageError("both -i and -j are required for an entry")
    kernel = build_kernel(spec, singular_tol=tol)
    if entry_mode:
        value = inverse_entry(kernel, args.i, args.j)
        result = {"i": args.i, "j": args.j, "value": value}
        return _emit(args, _spec_echo(spec), result, {"singular_tol": tol},
                     [f"inverse[{args.i},{args.j}] = {_fmt(value)}"])
    rhs = _parse_rhs(args.rhs, spec.n)
    x, table, plain = _indexed("i", "x", "x", apply_inverse(kernel, rhs))
    return _emit(args, _spec_echo(spec), {"solution": x}, {"singular_tol": tol},
                 plain, table)


def _cmd_solve(args) -> int:
    spec = _resolve_spec(args)
    tol = _singular_tol(args)
    rhs = _parse_rhs(args.rhs, spec.n)
    if args.method == "thomas":
        x = thomas_solve(spec, rhs)
    else:
        x = apply_inverse(build_kernel(spec, singular_tol=tol), rhs)
    x, table, plain = _indexed("i", "x", "x", x)
    result = {"method": args.method, "solution": x}
    return _emit(args, _spec_echo(spec), result, {"singular_tol": tol}, plain, table)


def _cmd_cond(args) -> int:
    spec = _resolve_spec(args)
    tol = _singular_tol(args)
    rep = weighted_condition(spec, singular_tol=tol)
    result = {
        "lambda_max": rep.lambda_max,
        "lambda_min": rep.lambda_min,
        "positive_definite": rep.positive_definite,
        "cond_weighted": rep.cond_weighted,
        "formula_value": rep.formula_value,
    }
    plain = [
        f"lambda_max = {_fmt(rep.lambda_max)}",
        f"lambda_min = {_fmt(rep.lambda_min)}",
        f"positive_definite = {str(rep.positive_definite).lower()}",
        f"cond_weighted = {_fmt(rep.cond_weighted)}",
    ]
    if rep.formula_value is not None:
        plain.append(f"formula_value = {_fmt(rep.formula_value)}")
    return _emit(args, _spec_echo(spec), result, {"singular_tol": tol}, plain)


def _cmd_decay(args) -> int:
    spec = _resolve_spec(args)
    env = decay_envelope(spec)
    bound = decay_bound(spec, args.i, args.j)
    result = {"i": args.i, "j": args.j, "eta": env.eta,
              "prefactor": env.prefactor, "bound": bound}
    plain = [
        f"eta = {_fmt(env.eta)}",
        f"prefactor = {_fmt(env.prefactor)}",
        f"bound[{args.i},{args.j}] = {_fmt(bound)}",
    ]
    return _emit(args, _spec_echo(spec), result, {}, plain)


def _repunit_spec_echo(base: float, n: int) -> dict:
    spec = make_spec(base, base + 1.0, 1.0, n)
    echo = _spec_echo(spec)
    echo["base"] = base
    return echo


def _cmd_repunit(args) -> int:
    base = args.base
    if args.action == "value":
        rv = repunit(args.m, base)
        if args.exact and rv.exact_value is None:
            raise _UsageError("--exact needs a positive integer base")
        exact = None if rv.exact_value is None else str(rv.exact_value)
        result = {"m": args.m, "base": base, "exact": exact,
                  "value": rv.float_value}
        plain = [exact if args.exact else _fmt(rv.float_value)]
        return _emit(args, {"base": base, "m": args.m}, result, {}, plain)
    if args.action == "det":
        exact = None
        if float(base).is_integer() and base >= 1:
            exact = str(repunit_det_exact(int(base), args.n))
        elif args.exact:
            raise _UsageError("--exact needs a positive integer base")
        fv = repunit(args.n + 1, base).float_value
        result = {"n": args.n, "base": base, "exact": exact, "value": fv}
        plain = [exact if (args.exact and exact is not None) else _fmt(fv)]
        return _emit(args, _repunit_spec_echo(base, args.n), result, {}, plain)
    if args.action == "product":
        lv = cosine_product_log(base, args.n)
        value = math.exp(lv) if lv <= math.log(sys.float_info.max) else None
        result = {"n": args.n, "base": base, "log_value": lv, "value": value}
        plain = [f"log_value = {_fmt(lv)}", f"value = {_fmt_or_overflow(value)}"]
        return _emit(args, _repunit_spec_echo(base, args.n), result, {}, plain)
    if args.action == "cond":
        value = repunit_condition(base, args.n)
        result = {"n": args.n, "base": base, "value": value}
        return _emit(args, _repunit_spec_echo(base, args.n), result, {},
                     [f"cond = {_fmt(value)}"])
    if args.action == "inverse":
        entry = repunit_inverse_entry(base, args.n, args.i, args.j)
        rational = str(entry.value)
        result = {"n": args.n, "base": base, "i": args.i, "j": args.j,
                  "sign": entry.sign, "rational": rational,
                  "value": entry.float_value}
        plain = [f"inverse[{args.i},{args.j}] = {rational} "
                 f"({_fmt(entry.float_value)})"]
        header = ["i", "j", "sign", "rational", "value"]
        return _emit(args, _repunit_spec_echo(base, args.n), result, {}, plain,
                     (header, [[result[k] for k in header]]))
    # identity
    resid = cheb_repunit_identity_residual(base, args.m)
    result = {"m": args.m, "base": base, "residual": resid}
    return _emit(args, {"base": base, "m": args.m}, result, {},
                 [f"residual = {_fmt(resid)}"])


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


def _cmd_verify(args) -> int:
    spec = _resolve_spec(args)
    if spec.n > ORACLE_ENVELOPE:
        raise _UsageError(
            f"verify is limited to the oracle envelope n <= {ORACLE_ENVELOPE}"
        )
    tol = _singular_tol(args)
    checks = _verify_checks(spec, tol)
    failed = any(c["status"] == "FAIL" for c in checks)
    result = {"checks": checks, "overall": "FAIL" if failed else "PASS"}
    width = max(len(c["name"]) for c in checks)
    plain = []
    for c in checks:
        if c["residual"] is None:
            plain.append(f"{c['name']:<{width}}  {c['status']}")
        else:
            plain.append(
                f"{c['name']:<{width}}  residual {_fmt(c['residual'])}"
                f"  tol {_fmt(c['tolerance'])}  {c['status']}"
            )
    plain.append(f"overall: {result['overall']}")
    table = (["check", "residual", "tolerance", "status"],
             [c.values() for c in checks])
    _emit(args, _spec_echo(spec), result, {"singular_tol": tol}, plain, table)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# bench

def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _cmd_bench(args) -> int:
    a, b, c = _resolve_spec(args, with_n=False)
    try:
        grid = [int(t) for t in args.grid.split(",")]
    except ValueError as exc:
        raise _UsageError(f"--grid must be a comma-separated int list: {exc}")
    if args.reps < 0:
        raise _UsageError("--reps must be >= 0")
    tol = _singular_tol(args)

    rows = []
    for n in grid:
        spec = make_spec(a, b, c, n)
        rng = np.random.default_rng(1800 + n)
        rhs = rng.standard_normal(n)
        solutions = {}
        times = {"apply_inverse": None, "thomas": None, "dense": None}

        gapped = spec.symmetrisable and symmetrise(spec).x > 1.0
        if gapped:
            kernel = build_kernel(spec, singular_tol=tol)
            if kernel.invertible:
                solutions["apply_inverse"] = apply_inverse(kernel, rhs)
                if args.reps:
                    times["apply_inverse"] = _median_ms(
                        lambda: apply_inverse(kernel, rhs), args.reps
                    )
        try:
            solutions["thomas"] = thomas_solve(spec, rhs)
            if args.reps:
                times["thomas"] = _median_ms(lambda: thomas_solve(spec, rhs), args.reps)
        except TriToeplitzError:
            pass
        if n <= args.dense_limit:
            dense = dense_from_spec(spec)
            try:
                solutions["dense"] = lu_solve(dense, rhs)
                if args.reps:
                    times["dense"] = _median_ms(lambda: lu_solve(dense, rhs), args.reps)
            except SingularMatrix:
                pass

        disc = None
        if len(solutions) >= 2:
            sols = list(solutions.values())
            norm = max(float(np.max(np.abs(s0))) for s0 in sols)
            disc = 0.0
            for u in range(len(sols)):
                for v in range(u + 1, len(sols)):
                    disc = max(disc, float(np.max(np.abs(sols[u] - sols[v]))))
            disc /= max(norm, 1e-300)
        rows.append({
            "n": n,
            "apply_inverse_ms": times["apply_inverse"],
            "thomas_ms": times["thomas"],
            "dense_ms": times["dense"],
            "max_discrepancy": disc,
        })

    return _emit(args, {"a": a, "b": b, "c": c}, {"rows": rows},
                 {"singular_tol": tol},
                 table=(list(rows[0]), [row.values() for row in rows]),
                 meta={"grid": grid, "reps": args.reps,
                       "dense_limit": args.dense_limit})


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritoep",
        description="Closed-form spectra, determinants, inverses and "
                    "conditioning of tridiagonal Toeplitz matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eig", help="eigenvalues (all) or one eigenvector (-k)")
    _add_spec_args(sp)
    sp.add_argument("-k", type=int, default=None, help="eigenpair index (1-based)")
    sp.add_argument("--normalization",
                    choices=("raw", "unit_weighted", "unit_euclidean"),
                    default="raw")
    _add_format_arg(sp)
    sp.set_defaults(func=_cmd_eig)

    sp = sub.add_parser("det", help="determinant (sign, log-magnitude, value)")
    _add_spec_args(sp)
    _add_format_arg(sp)
    sp.set_defaults(func=_cmd_det)

    sp = sub.add_parser("charpoly", help="characteristic polynomial at t")
    _add_spec_args(sp)
    sp.add_argument("-t", type=float, required=True, help="evaluation point")
    _add_format_arg(sp)
    sp.set_defaults(func=_cmd_charpoly)

    sp = sub.add_parser("inverse", help="one inverse entry (-i -j) or apply (--rhs)")
    _add_spec_args(sp)
    sp.add_argument("-i", type=int, default=None)
    sp.add_argument("-j", type=int, default=None)
    sp.add_argument("--rhs", default=None, help="comma-separated right-hand side")
    _add_format_arg(sp)
    sp.set_defaults(func=_cmd_inverse)

    sp = sub.add_parser("solve", help="solve A x = rhs")
    _add_spec_args(sp)
    sp.add_argument("--rhs", required=True, help="comma-separated right-hand side")
    sp.add_argument("--method", choices=("thomas", "kernel"), default="thomas")
    _add_format_arg(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("cond", help="weighted condition number report")
    _add_spec_args(sp)
    _add_format_arg(sp)
    sp.set_defaults(func=_cmd_cond)

    sp = sub.add_parser("decay", help="inverse-entry decay bound (needs x > 1)")
    _add_spec_args(sp)
    sp.add_argument("-i", type=int, required=True)
    sp.add_argument("-j", type=int, required=True)
    _add_format_arg(sp)
    sp.set_defaults(func=_cmd_decay)

    sp = sub.add_parser("repunit", help="repunit identities (exact for integer bases)")
    rsub = sp.add_subparsers(dest="action", required=True)
    for action, extra in (
        ("value", ("m",)),
        ("det", ("n",)),
        ("product", ("n",)),
        ("cond", ("n",)),
        ("inverse", ("n", "i", "j")),
        ("identity", ("m",)),
    ):
        rp = rsub.add_parser(action)
        rp.add_argument("--base", type=float, required=True, help="repunit base d > 0")
        for name in extra:
            rp.add_argument(f"-{name}", type=int, required=True)
        if action in ("value", "det"):
            rp.add_argument("--exact", action="store_true",
                            help="print the exact decimal string (integer base only)")
        _add_format_arg(rp)
        rp.set_defaults(func=_cmd_repunit)

    sp = sub.add_parser("verify", help="oracle cross-checks for one spec (n <= 200)")
    _add_spec_args(sp)
    _add_format_arg(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("bench", help="timing table: apply_inverse / thomas / dense")
    _add_spec_args(sp, with_n=False)
    sp.add_argument("--grid", required=True, help="comma-separated orders, e.g. 64,256")
    sp.add_argument("--reps", type=int, default=9,
                    help="timing repetitions (median reported); 0 = no timing, "
                         "deterministic output")
    sp.add_argument("--dense-limit", type=int, default=DEFAULT_DENSE_LIMIT,
                    help="skip the dense baseline above this order")
    _add_format_arg(sp, default="csv")
    sp.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TriToeplitzError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
