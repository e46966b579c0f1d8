"""The extreme grid: |a| and |c| from 1e-300 to 1e308, b on both sides of 2s.

Every closed-form routine either meets its stated contract against a
reference that does not share its code, or raises OverflowError; no answer
is NaN or inf, and no call warns (pytest turns a RuntimeWarning into an
error).  The references are exact: the continuant in Fraction arithmetic
for det(A) and det(tI - A), the Usmani inverse (``helpers.inverse_exact``)
and, for the spectrum, b + 2s cos(k pi/(n+1)) in 40-digit mpmath.  The
``eig`` subcommand, run in process, prints the library's spectrum exactly
or exits 1 with the library's refusal.
"""

import contextlib
import io
import itertools
import json
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from helpers import inverse_exact, log_abs_fraction
from tritoep import TriToeplitzError, cli, make_spec
from tritoep.conditioning import weighted_condition
from tritoep.greens import apply_inverse, build_kernel, inverse_dense, thomas_solve
from tritoep.spectral import char_poly_eval, determinant, eigenvalues, extremal_eigenvalues

MAGNITUDES = (1e-300, 1e-200, 1e-150, 1.0, 1e150, 1e200, 1e300, 1e308)
EPS = 2.0**-52
# x = b/(2s) on both sides of 1, with a negative b; n = 3 and 6
SHAPES = ((0.3, 3), (1.7, 6), (-1.7, 3))


def _continuant(diag, ac, n):
    prev, cur = Fraction(1), diag
    for _ in range(n - 1):
        prev, cur = cur, diag * cur - ac * prev
    return cur


def _case(ma, mc, x, n):
    """The spec, with b = 2s x clamped to the float range, and its exact spectrum."""
    with mpmath.workdps(40):
        s = mpmath.sqrt(mpmath.mpf(ma) * mpmath.mpf(mc))
        b = float(mpmath.mpf(2) * s * x)
        b = b if math.isfinite(b) else math.copysign(sys.float_info.max, x)
        lam = [b + 2 * s * mpmath.cos(k * mpmath.pi / (n + 1)) for k in range(1, n + 1)]
        spread = abs(b) + 2 * s
        # the rounding of a closed form relative to min|lambda|
        amp = float(spread / min(abs(v) for v in lam))
    return make_spec(ma, b, mc, n), lam, float(spread), amp


def _log_close(got, want, amp, n):
    """Sign equal and log|.| within 64 n eps amp, amp = (|b| + 2s)/min|lambda|,
    plus the rounding of a log of up to n*709 itself."""
    assert got.sign == (1 if want > 0 else -1)
    log_want = log_abs_fraction(want)
    assert abs(got.log_mag - log_want) <= 64 * n * EPS * amp + 8 * EPS * abs(log_want)


def _check_cli_eig(spec):
    """``tritoep eig`` in json: exit 0 with eigenvalues(spec), or exit 1 with its refusal."""
    argv = ["eig", f"-a{spec.a!r}", f"-b{spec.b!r}", f"-c{spec.c!r}", "-n", str(spec.n),
            "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    try:
        want = eigenvalues(spec).tolist()
    except OverflowError as exc:
        assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: OverflowError: {exc}\n")
        return
    assert (code, err.getvalue()) == (0, "")
    assert json.loads(out.getvalue())["result"] == {"eigenvalues": want}


@pytest.mark.parametrize("ma", MAGNITUDES)
def test_extreme_grid(ma):
    # one test per |a|, so that the grid costs 8 test items, not 192
    for mc, (x, n) in itertools.product(MAGNITUDES, SHAPES):
        _check_case(ma, mc, x, n)


def _check_case(ma, mc, x, n):
    spec, lam, spread, amp = _case(ma, mc, x, n)
    a, b, c = Fraction(spec.a), Fraction(spec.b), Fraction(spec.c)
    try:
        _log_close(determinant(spec), _continuant(b, a * c, n), amp, n)
    except OverflowError:
        pass
    t = spec.b / 2  # det(tI - A) at a t off the spectrum
    try:
        _log_close(char_poly_eval(spec, t), _continuant(Fraction(t) - b, a * c, n), amp, n)
    except OverflowError:
        pass

    # the normwise contract: a few eps of |b| + 2s
    try:
        got = eigenvalues(spec)
        assert np.isfinite(got).all()
        assert max(abs(g - w) for g, w in zip(got, lam)) <= 8 * EPS * spread
    except OverflowError:
        assert max(abs(v) for v in lam) > sys.float_info.max
    _check_cli_eig(spec)
    try:
        ext = extremal_eigenvalues(spec)
        assert math.isfinite(ext.lambda_max) and math.isfinite(ext.lambda_min)
        assert abs(ext.lambda_max - lam[0]) <= 8 * EPS * spread
        assert abs(ext.lambda_min - lam[-1]) <= 8 * EPS * spread
    except OverflowError:
        assert max(abs(v) for v in lam) > sys.float_info.max
    try:
        rep = weighted_condition(spec)
        ratio = max(abs(v) for v in lam) / min(abs(v) for v in lam)
        assert abs(rep.cond_weighted / ratio - 1) <= 16 * n * EPS * amp
    except OverflowError:
        assert max(abs(v) for v in lam) > sys.float_info.max

    _check_solves(spec)
    try:
        inv = inverse_dense(build_kernel(spec))
    except OverflowError:
        return
    want = inverse_exact(spec)
    assert np.isfinite(want).all()
    assert np.max(np.abs(inv - want)) <= 1e-12 * np.max(np.abs(want))


# exact zeros, both signs and a spread of magnitudes
RHS = np.array([1.0, -2.0, 0.0, 0.5, -3.0, 1.0])


def _check_solves(spec):
    """apply_inverse and thomas_solve, normwise: within 1e-12 n max|A^-1|
    max|rhs| of ``inverse_exact(spec) @ rhs``, or a typed refusal."""
    rhs = RHS[:spec.n]
    inv = inverse_exact(spec)
    with np.errstate(all="ignore"):  # an inverse entry past the float range is inf
        bound = 1e-12 * spec.n * np.max(np.abs(inv)) * np.max(np.abs(rhs))
        want = inv @ rhs
    for solve in (lambda: apply_inverse(build_kernel(spec), rhs), lambda: thomas_solve(spec, rhs)):
        try:
            got = solve()
        except (TriToeplitzError, OverflowError):
            continue
        assert np.isfinite(got).all()
        if math.isfinite(bound):
            assert np.max(np.abs(got - want)) <= bound
