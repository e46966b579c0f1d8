"""The extreme grid: |a| and |c| from 1e-300 to 1e308, b on both sides of 2s.

Every closed-form routine either meets its stated contract against a
reference that does not share its code, or raises OverflowError; no answer
is NaN or inf, and no call warns (pytest turns a RuntimeWarning into an
error).  The references are exact: the continuant in Fraction arithmetic
for det(A) and det(tI - A), the Usmani inverse (``helpers.inverse_exact``)
and, for the spectrum, b + 2s cos(k pi/(n+1)) in 40-digit mpmath, which
also forms the eigenvectors' residuals.  The decay bound dominates every
exact entry.  The ``eig``, ``det``, ``charpoly``, ``cond`` and ``decay``
subcommands, run in process, print the library's values exactly or exit 1
with the library's refusal.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from helpers import inverse_exact, inverse_log_abs, log_abs_fraction
from tritoep import TriToeplitzError, cli, make_spec, symmetrise
from tritoep.conditioning import weighted_condition
from tritoep.decay import decay_bound, decay_envelope
from tritoep.oracle import dense_from_spec
from tritoep.greens import apply_inverse, build_kernel, inverse_dense, inverse_entry, thomas_solve
from tritoep.spectral import (char_poly_eval, determinant, eigenvalues, eigenvector,
                              extremal_eigenvalues)

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


def _check_cli(spec, command, want):
    """``tritoep <command>`` in json, run in process: exit 0 printing ``want()``,
    the library's values, or exit 1 with the refusal that ``want()`` raises."""
    argv = [*command, f"-a{spec.a!r}", f"-b{spec.b!r}", f"-c{spec.c!r}", "-n", str(spec.n),
            "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    try:
        expected = want()
    except (TriToeplitzError, OverflowError) as exc:
        assert (code, out.getvalue(), err.getvalue()) == (
            1, "", f"error: {type(exc).__name__}: {exc}\n")
        return
    assert (code, err.getvalue()) == (0, "")
    assert json.loads(out.getvalue())["result"] == expected


def _signed(value, **fields):
    """The sign / log_abs / value result that the CLI prints for a ScaledValue."""
    if value.sign == 0:
        return {**fields, "sign": 0, "log_abs": None, "value": 0.0}
    return {**fields, "sign": value.sign, "log_abs": value.log_mag, "value": value.try_float()}


def _check_cli_commands(spec):
    """``eig``, ``det``, ``charpoly`` (at t = b/2), ``cond`` and ``decay`` (at
    (1, n) and (n, 1)) against the library."""
    _check_cli(spec, ["eig"], lambda: {"eigenvalues": eigenvalues(spec).tolist()})
    _check_cli(spec, ["det"], lambda: _signed(determinant(spec)))
    t = spec.b / 2
    _check_cli(spec, ["charpoly", f"-t{t!r}"], lambda: _signed(char_poly_eval(spec, t), t=t))
    _check_cli(spec, ["cond"], lambda: dataclasses.asdict(weighted_condition(spec)))
    n = spec.n
    # a spec outside the gapped regime is refused whatever i and j
    for i, j in ((1, n), (n, 1)) if symmetrise(spec).x > 1.0 else ((1, n),):
        def decay(i=i, j=j):
            env = decay_envelope(spec)
            return {"i": i, "j": j, "eta": env.eta, "prefactor": env.prefactor,
                    "bound": decay_bound(spec, i, j)}
        _check_cli(spec, ["decay", "-i", str(i), "-j", str(j)], decay)


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
    _check_cli_commands(spec)
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
    _check_entries(spec)
    _check_decay(spec)
    _check_eigenvectors(spec, lam)
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


def _check_entries(spec):
    """inverse_entry at every (i, j), entrywise against the exact entry X_ij:
    within 16 eps (l_ij |X_ij| + (|X| |A| |X|)_ij) to first order, l_ij the
    rounding of the log-magnitudes (as in
    ``test_greens.test_entries_against_the_exact_inverse``) and |X| |A| |X|
    a perturbation of each entry of A by 16 eps of itself; or
    OverflowError where X_ij is near or past the float range; or a typed
    refusal of the whole kernel.  The bound is formed in logs, so that the
    products of entries near 1e308 and 1e-300 stay in range."""
    try:
        kernel = build_kernel(spec)
    except (TriToeplitzError, OverflowError):
        return
    exact = inverse_exact(spec)
    n, form = spec.n, symmetrise(spec)
    log_x = inverse_log_abs(spec)  # of |X|, past the float range too
    gamma = math.acosh(abs(form.x)) if abs(form.x) > 1.0 else 0.0
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    log_scale = (1.0 + (d + 1) * gamma + d * abs(math.log(abs(form.q)))
                 + abs(math.log(form.s)) + 2.0 * math.log(n + 1))
    tol = 16 * EPS
    with np.errstate(divide="ignore"):  # log 0 = -inf off the band of A
        log_a = np.log(np.abs(dense_from_spec(spec)))

    def log_product(left, right):
        # log of (|X| |A| right)_ij from the logs of |X| and of right
        return np.logaddexp.reduce(
            left[:, :, None, None] + log_a[None, :, :, None] + right[None, None, :, :],
            axis=(1, 2))

    log_first = log_product(log_x, log_x)
    log_bound = np.logaddexp(math.log(tol) + np.logaddexp(np.log(log_scale) + log_x, log_first),
                             2 * math.log(tol) + log_product(log_first, log_x))
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        want = exact[i - 1, j - 1]
        try:
            got = inverse_entry(kernel, i, j)
        except OverflowError:
            # its log-magnitude rounds past the float range
            assert abs(want) > sys.float_info.max / 2
            continue
        assert math.isfinite(got) and math.isfinite(want)
        # halved, so that the difference of two finite entries is finite
        err = abs(got / 2 - want / 2)
        assert err == 0 or math.log(err) + math.log(2.0) <= log_bound[i - 1, j - 1]


def _check_decay(spec):
    """decay_bound at every (i, j) dominates the exact |X_ij| (from its log,
    ``inverse_log_abs``), up to the rounding of the bound's log and one
    subnormal step, so that a bound that underflows to 0 passes only where
    X_ij is below the floats; or a typed refusal (x <= 1); or OverflowError
    where X_ij is within e^2 of the float range, as the bound exceeds the
    entry by at most 2/(1 - e^(-2 gamma))^2, 2.5 at x = 1.7."""
    gapped = symmetrise(spec).x > 1.0
    log_x = inverse_log_abs(spec) if gapped else None
    for i, j in itertools.product(range(1, spec.n + 1), repeat=2):
        try:
            bound = decay_bound(spec, i, j)
        except TriToeplitzError:
            assert not gapped
            continue
        except OverflowError:
            assert log_x[i - 1, j - 1] > math.log(sys.float_info.max) - 2.0
            continue
        assert 0.0 <= bound < math.inf
        want = log_x[i - 1, j - 1]
        assert bound + 5e-324 >= math.exp(want - 64 * EPS * (1.0 + abs(want)))


def _check_eigenvectors(spec, lam):
    """eigenvector in the raw, unit_weighted and unit_euclidean normalizations,
    normwise: the residual max|A v - lambda v|, formed in 40-digit mpmath with
    the exact eigenvalue, is within 4 (n + 1)^2 eps ||A|| max|v| (the rounded
    theta_k and sines, as in ``test_spectral.test_eigen_pair_residual_normwise``),
    or OverflowError, or a typed refusal."""
    n = spec.n
    a, b, c = (mpmath.mpf(v) for v in (spec.a, spec.b, spec.c))
    row_scale = abs(a) + abs(b) + abs(c)
    for k, norm in itertools.product(range(1, n + 1), ("raw", "unit_weighted",
                                                       "unit_euclidean")):
        try:
            vec = eigenvector(spec, k, norm)
        except (TriToeplitzError, OverflowError):
            continue
        assert np.isfinite(vec).all() and np.any(vec)
        with mpmath.workdps(40):
            v = [mpmath.mpf(0), *map(mpmath.mpf, vec), mpmath.mpf(0)]
            resid = max(abs(a * v[j - 1] + (b - lam[k - 1]) * v[j] + c * v[j + 1])
                        for j in range(1, n + 1))
            assert resid <= 4 * (n + 1) ** 2 * EPS * row_scale * max(abs(t) for t in v)
