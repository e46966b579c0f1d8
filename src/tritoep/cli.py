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

The module parses arguments and prints answers; ``verify``'s
cross-checks are ``oracle.verify_checks``.  Every subcommand takes the
parsed arguments and the spec that ``main`` resolved, and returns one
``_Answer``: the result dict, its lazy plain lines and, where needed,
tolerances, a lazy csv table, json meta or a spec echo.  ``main`` alone
prints it with ``_emit``, which formats only the chosen format and
prints it with one ``print``, and sets the exit status.  json is the
spec echo, the result (non-finite floats as null) and a meta block; csv
is the result's fields as a header and one row, or a table for 1-based
vectors (one row per index), ``repunit inverse``, ``verify`` and
``bench``; plain is the subcommand's lines, or the csv for ``bench``.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import os
import sys
import time
from typing import TYPE_CHECKING, Iterable, NamedTuple

from . import __version__
from .cheby import ScaledValue
from .core import _SINGULAR_TOL, _check_int, _check_singular_tol, make_spec, symmetrise
from .errors import SingularMatrix, TriToeplitzError

if TYPE_CHECKING:
    import numpy as np

# ``main`` builds the parser of the named subcommand alone.  The other library
# modules (spectral, greens, decay, conditioning, repunit, oracle), numpy and
# the stdlib modules that only some paths need (json, statistics) are imported
# where they are used, so a process loads only what its subcommand needs: eig
# without -k, det, charpoly, cond, decay and every repunit action but product
# run without numpy, decay, solve and inverse without spectral.

DEFAULT_SINGULAR_TOL = _SINGULAR_TOL
DEFAULT_DENSE_LIMIT = 1024


class _UsageError(Exception):
    pass


class _Answer(NamedTuple):
    """One subcommand's answer, which ``main`` prints with ``_emit``.

    ``table`` is the csv header and its rows as csv lines; the rows and
    ``plain`` may be lazy, read only if printed.  ``plain`` None prints
    the csv; ``table`` None makes it the result's fields as one row;
    ``tolerances`` None is the singular tolerance alone where the
    subcommand takes --tol, and none else; ``echo`` None echoes the spec.
    """

    result: dict
    plain: Iterable[str] | None = None
    tolerances: dict | None = None
    table: tuple | None = None
    meta: dict | None = None
    echo: dict | None = None


def _fmt(v) -> str:
    """Shortest round-trip float formatting; None (past the float range) is "overflow"."""
    return "overflow" if v is None else repr(float(v))


def _decimal(value) -> str:
    """The decimal string of an exact int or Fraction, however many digits.

    The interpreter's limit on int-to-str digits (4300 by default) is lifted
    for this one conversion and restored, since ``main`` also runs in process.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _cell(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _csv_row(values) -> str:
    return ",".join(map(_cell, values))


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
    """Print one answer in ``fmt``, with one ``print`` (rules in the module docstring)."""
    if fmt == "json":
        import json

        doc = {
            "spec": echo,
            "result": _sanitize(answer.result),
            "meta": {"version": __version__, **(answer.meta or {}),
                     "tolerances": tolerances},
        }
        text = json.dumps(doc, indent=2)
    elif fmt == "plain" and answer.plain is not None:
        text = "\n".join(answer.plain)
    else:
        header, rows = answer.table or (list(answer.result), [_csv_row(answer.result.values())])
        text = "\n".join([",".join(header), *rows])
    print(text)


def _indexed(index: str, name: str, symbol: str, values: list):
    """A 1-based vector of Python floats: its csv table and plain lines, both lazy."""
    lines = (f"{symbol}_{k} = {_fmt(v)}" for k, v in enumerate(values, 1))
    # each row formatted whole, as _csv_row((k, v)) formats a Python float v
    return ([index, name], (f"{k},{v!r}" for k, v in enumerate(values, 1))), lines


def _signed_log(sv: ScaledValue, lhs: str, log_name: str, zero: str = "") -> tuple:
    """The sign / log_abs / value result of ``sv`` and its plain line."""
    if sv.sign == 0:
        return {"sign": 0, "log_abs": None, "value": 0.0}, f"{lhs} = 0{zero}"
    value = sv.try_float()
    return ({"sign": sv.sign, "log_abs": sv.log_mag, "value": value},
            f"{lhs} = {_fmt(value)} (sign {sv.sign}, log|{log_name}| {_fmt(sv.log_mag)})")


def _solution(x: list, **fields) -> _Answer:
    """A solve's answer: ``fields``, then the solution vector."""
    table, plain = _indexed("i", "x", "x", x)
    return _Answer({**fields, "solution": x}, plain, table=table)


# ---------------------------------------------------------------------------
# spec plumbing

def _resolve_spec(args):
    """The spec from the flags over --spec-file; (a, b, c) for bench, None for repunit."""
    if not hasattr(args, "spec_file"):
        return None
    with_n = hasattr(args, "n")
    data = {}
    if args.spec_file:
        import json

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
    import numpy as np

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
    from .spectral import _eigenvalue, _extremes, eigenvector

    # the eigenvalues on Python floats, each equal to its entry of
    # spectral.eigenvalues bit for bit, so the listing never loads numpy
    s = symmetrise(spec).s
    if args.k is None:
        _extremes(spec, s)
        vals = [_eigenvalue(spec, s, k) for k in range(1, spec.n + 1)]
        table, plain = _indexed("k", "eigenvalue", "lambda", vals)
        return _Answer({"eigenvalues": vals}, plain, table=table)
    vec = eigenvector(spec, args.k, args.normalization).tolist()
    table, plain = _indexed("j", "component", "v", vec)
    _extremes(spec, s)
    lam = _eigenvalue(spec, s, args.k)
    result = {"k": args.k, "eigenvalue": lam,
              "normalization": args.normalization, "eigenvector": vec}
    plain = itertools.chain([f"lambda_{args.k} = {_fmt(lam)}"], plain)
    return _Answer(result, plain, table=table)


def _cmd_det(args, spec) -> _Answer:
    from .spectral import determinant

    result, line = _signed_log(determinant(spec), "det", "det")
    return _Answer(result, [line])


def _cmd_charpoly(args, spec) -> _Answer:
    from .spectral import _CHARPOLY_ZERO_TOL, char_poly_eval

    result, line = _signed_log(char_poly_eval(spec, args.t), f"charpoly({_fmt(args.t)})",
                               "chi", " (within tolerance)")
    return _Answer({"t": args.t, **result}, [line], {"charpoly_zero_tol": _CHARPOLY_ZERO_TOL})


def _cmd_inverse(args, spec) -> _Answer:
    from .greens import apply_inverse, build_kernel, inverse_entry

    entry_mode = args.i is not None or args.j is not None
    if entry_mode and args.rhs is not None:
        raise _UsageError("give either -i/-j or --rhs, not both")
    if not entry_mode and args.rhs is None:
        raise _UsageError("inverse needs -i and -j (one entry) or --rhs (apply)")
    if entry_mode and (args.i is None or args.j is None):
        raise _UsageError("both -i and -j are required for an entry")
    kernel = build_kernel(spec, singular_tol=args.tol)
    if not entry_mode:
        return _solution(apply_inverse(kernel, _parse_rhs(args.rhs, spec.n)).tolist())
    value = inverse_entry(kernel, args.i, args.j)
    return _Answer({"i": args.i, "j": args.j, "value": value},
                   [f"inverse[{args.i},{args.j}] = {_fmt(value)}"])


def _cmd_solve(args, spec) -> _Answer:
    from .greens import apply_inverse, build_kernel, thomas_solve

    rhs = _parse_rhs(args.rhs, spec.n)
    if args.method == "thomas":
        x = thomas_solve(spec, rhs)
    else:
        x = apply_inverse(build_kernel(spec, singular_tol=args.tol), rhs)
    return _solution(x.tolist(), method=args.method)


def _cmd_cond(args, spec) -> _Answer:
    from .conditioning import weighted_condition

    result = dataclasses.asdict(weighted_condition(spec, singular_tol=args.tol))
    plain = [f"{k} = {str(v).lower() if isinstance(v, bool) else _fmt(v)}"
             for k, v in result.items() if v is not None]
    return _Answer(result, plain)


def _cmd_decay(args, spec) -> _Answer:
    from .decay import decay_bound, decay_envelope

    env = decay_envelope(spec)
    bound = decay_bound(spec, args.i, args.j)
    result = {"i": args.i, "j": args.j, "eta": env.eta,
              "prefactor": env.prefactor, "bound": bound}
    plain = [f"eta = {_fmt(env.eta)}", f"prefactor = {_fmt(env.prefactor)}",
             f"bound[{args.i},{args.j}] = {_fmt(bound)}"]
    return _Answer(result, plain)


def _cmd_repunit(args, _spec) -> _Answer:
    from .repunit import (_integer_base, cheb_repunit_identity_residual, cosine_product_log,
                          repunit, repunit_condition, repunit_inverse_entry)

    base = args.base
    if args.action in ("value", "det"):
        if args.exact and _integer_base(base) is None:
            raise _UsageError("--exact needs a positive integer base")
        # the order-n repunit matrix has det R_(n+1)(d), the repunit theorem
        key = "m" if args.action == "value" else "n"
        m = args.m if key == "m" else _check_int(args.n, "n", 1) + 1
        rv = repunit(m, base)
        # the exact decimal only where it is printed
        shown = rv.exact_value is not None and (args.exact or args.format != "plain")
        exact = _decimal(rv.exact_value) if shown else None
        result = {key: getattr(args, key), "base": base, "exact": exact,
                  "value": rv.float_value}
        answer = _Answer(result, [exact if args.exact else _fmt(rv.float_value)])
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
        rational = _decimal(entry.value)
        result = {"n": args.n, "base": base, "i": args.i, "j": args.j,
                  "sign": entry.sign, "rational": rational,
                  "value": entry.float_value}
        header = ["i", "j", "sign", "rational", "value"]
        answer = _Answer(result, [f"inverse[{args.i},{args.j}] = {rational} "
                                  f"({_fmt(entry.float_value)})"],
                         table=(header, [_csv_row(result[k] for k in header)]))
    else:  # identity
        resid = cheb_repunit_identity_residual(base, args.m)
        answer = _Answer({"m": args.m, "base": base, "residual": resid},
                         [f"residual = {_fmt(resid)}"])
    # the actions of degree m echo it; those of order n echo their repunit matrix
    if hasattr(args, "m"):
        echo = {"base": base, "m": args.m}
    else:
        echo = {**_spec_echo(make_spec(base, base + 1.0, 1.0, args.n)), "base": base}
    return answer._replace(echo=echo)


def _cmd_verify(args, spec) -> _Answer:
    from .oracle import ORACLE_ENVELOPE, verify_checks

    if spec.n > ORACLE_ENVELOPE:
        raise _UsageError(f"verify is limited to the oracle envelope n <= {ORACLE_ENVELOPE}")
    checks = verify_checks(spec, args.tol)
    failed = any(c["status"] == "FAIL" for c in checks)
    result = {"checks": checks, "overall": "FAIL" if failed else "PASS"}
    width = max(len(c["name"]) for c in checks)
    plain = [f"{c['name']:<{width}}  " + ("" if c["residual"] is None else
             f"residual {_fmt(c['residual'])}  tol {_fmt(c['tolerance'])}  ")
             + c["status"] for c in checks]
    plain.append(f"overall: {result['overall']}")
    table = (["check", "residual", "tolerance", "status"],
             [_csv_row(c.values()) for c in checks])
    return _Answer(result, plain, table=table)


# ---------------------------------------------------------------------------
# bench

def _median_ms(fn, reps: int) -> float:
    import statistics

    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _cmd_bench(args, abc) -> _Answer:
    import numpy as np

    from .greens import apply_inverse, build_kernel, thomas_solve
    from .oracle import dense_from_spec, lu_solve

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

    return _Answer({"rows": rows}, table=(list(rows[0]), [_csv_row(r.values()) for r in rows]),
                   meta={"grid": grid, "reps": args.reps, "dense_limit": args.dense_limit},
                   echo={"a": a, "b": b, "c": c})


# ---------------------------------------------------------------------------
# parser: one table of rows (name, handler or the rows of its actions, help,
# options), each option declared once as (flag, argparse keywords)

def _opt(option: tuple, **changes) -> tuple:
    """``option`` with ``changes`` to its argparse keywords."""
    return option[0], {**option[1], **changes}


_N, _I, _J = ("-n", {"type": int}), ("-i", {"type": int}), ("-j", {"type": int})
# repunit's integer arguments and decay's indices are required
_REQUIRED_N, _REQUIRED_I, _REQUIRED_J = (_opt(o, required=True) for o in (_N, _I, _J))
_M = ("-m", {"type": int, "required": True})
_SPEC = (("-a", {"type": float, "help": "subdiagonal entry"}),
         ("-b", {"type": float, "help": "diagonal entry"}),
         ("-c", {"type": float, "help": "superdiagonal entry"}))
_SPEC_FILE = ("--spec-file", {"help": "JSON file with a/b/c/n (accepts any subcommand's output)"})
_SPEC_N = (*_SPEC, _opt(_N, help="matrix order"), _SPEC_FILE)
# --tol, for the subcommands whose answer depends on it
_TOL = ("--tol", {"type": float, "default": DEFAULT_SINGULAR_TOL,
                  "help": f"singularity tolerance (default {DEFAULT_SINGULAR_TOL})"})
_RHS = ("--rhs", {"help": "comma-separated right-hand side"})
_FORMAT = ("--format", {"choices": ("json", "csv", "plain"), "default": "plain"})
_BASE = ("--base", {"type": float, "required": True, "help": "repunit base d > 0"})
_EXACT = ("--exact", {"action": "store_true",
                      "help": "print the exact decimal string (integer base only)"})

_COMMANDS = (
    ("eig", _cmd_eig, "eigenvalues (all) or one eigenvector (-k)", (
        *_SPEC_N, ("-k", {"type": int, "help": "eigenpair index (1-based)"}),
        ("--normalization", {"choices": ("raw", "unit_weighted", "unit_euclidean"),
                             "default": "raw"}), _FORMAT)),
    ("det", _cmd_det, "determinant (sign, log-magnitude, value)", (*_SPEC_N, _FORMAT)),
    ("charpoly", _cmd_charpoly, "characteristic polynomial at t", (
        *_SPEC_N, ("-t", {"type": float, "required": True, "help": "evaluation point"}),
        _FORMAT)),
    ("inverse", _cmd_inverse, "one inverse entry (-i -j) or apply (--rhs)", (
        *_SPEC_N, _TOL, _I, _J, _RHS, _FORMAT)),
    ("solve", _cmd_solve, "solve A x = rhs", (
        *_SPEC_N, _TOL, _opt(_RHS, required=True),
        ("--method", {"choices": ("thomas", "kernel"), "default": "thomas"}), _FORMAT)),
    ("cond", _cmd_cond, "weighted condition number report", (*_SPEC_N, _TOL, _FORMAT)),
    ("decay", _cmd_decay, "inverse-entry decay bound (needs x > 1)", (
        *_SPEC_N, _REQUIRED_I, _REQUIRED_J, _FORMAT)),
    ("repunit", (
        ("value", _cmd_repunit, None, (_BASE, _M, _EXACT, _FORMAT)),
        ("det", _cmd_repunit, None, (_BASE, _REQUIRED_N, _EXACT, _FORMAT)),
        ("product", _cmd_repunit, None, (_BASE, _REQUIRED_N, _FORMAT)),
        ("cond", _cmd_repunit, None, (_BASE, _REQUIRED_N, _FORMAT)),
        ("inverse", _cmd_repunit, None, (_BASE, _REQUIRED_N, _REQUIRED_I, _REQUIRED_J, _FORMAT)),
        ("identity", _cmd_repunit, None, (_BASE, _M, _FORMAT)),
    ), "repunit identities (exact for integer bases)", ()),
    ("verify", _cmd_verify, "oracle cross-checks for one spec (n <= 200)", (
        *_SPEC_N, _TOL, _FORMAT)),
    ("bench", _cmd_bench, "timing table: apply_inverse / thomas / dense", (
        *_SPEC, _SPEC_FILE, _TOL,
        ("--grid", {"required": True, "help": "comma-separated orders, e.g. 64,256"}),
        ("--reps", {"type": int, "default": 9,
                    "help": "timing repetitions (median reported); 0 = no timing, "
                            "deterministic output"}),
        ("--dense-limit", {"type": int, "default": DEFAULT_DENSE_LIMIT,
                           "help": "skip the dense baseline above this order"}),
        _opt(_FORMAT, default="csv"))),
)


class _ActionFirst(argparse.Action):
    """An option given before the command or action that ``dest`` names, refused by its name."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"argument {option_string}: the {self.dest} comes first")


def _flags(rows):
    """The option flags of ``rows`` and of the rows nested in them, in table order."""
    for _, then, _, options in rows:
        yield from (flag for flag, _ in options)
        if not callable(then):
            yield from _flags(then)


def _add_level(parser, rows: tuple, argv, dest: str = "command") -> None:
    """Add ``rows`` as the choices of ``dest``: argv[0]'s row alone if it names one,
    else every row; each with its options, then its handler or its own level.

    A lone row keeps every name in the metavar, so an error's usage reads as the
    full parser's.  With every row, an option of any row given before the choice is
    refused by its name: argparse would set it aside and take its value for the
    choice.  Not after a choice, whose parser reads its own options; here --r would
    be ambiguous between --rhs and --reps.
    """
    names = [name for name, *_ in rows]
    if argv and argv[0] in names:
        sub = parser.add_subparsers(dest=dest, required=True,
                                    metavar="{" + ",".join(names) + "}")
        rows, argv = [rows[names.index(argv[0])]], argv[1:]
    else:
        sub = parser.add_subparsers(dest=dest, required=True)
        parser.add_argument(*dict.fromkeys(_flags(rows)), nargs="?", action=_ActionFirst,
                            dest=dest, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        argv = ()
    for name, then, helptext, options in rows:
        sp = sub.add_parser(name, **({"help": helptext} if helptext else {}))
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
        if callable(then):
            sp.set_defaults(func=then)
        else:
            _add_level(sp, then, argv, "action")


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser, with the subcommand and repunit action that ``argv`` names alone."""
    parser = argparse.ArgumentParser(
        prog="tritoep",
        description="Closed-form spectra, determinants, inverses and "
                    "conditioning of tridiagonal Toeplitz matrices.",
    )
    _add_level(parser, _COMMANDS, argv)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
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
    try:
        _emit(args.format, echo, tolerances, answer)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader stopped early (``| head``): send what is left to devnull,
        # so that the flush at exit cannot raise again, and fail quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 1 if answer.result.get("overall") == "FAIL" else 0


def __getattr__(name):
    # the benchmark harness calls the checks by their former name here
    if name == "_verify_checks":
        from .oracle import verify_checks
        return verify_checks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
