"""Output checks against independent references, run outside the timed spans.

Each ``check_*`` returns None when the output passes and a short reason when
it does not.  References are computed here from the matrix parameters with
numpy (eigenvalues, the spectral sum for inverse entries, products of
eigenvalue gaps for determinants) or with exact integers (repunits), so a
defect in the program's closed forms cannot hide in the reference.

Tolerances on quantities that are ill-conditioned near a singular matrix
carry an allowance of ``_ROUNDING_SLACK`` times the first-order effect of
rounding the matrix entries, so a correct result on a nearly singular
spec is not reported as wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from tritoep import apply_matvec, build_kernel, inverse_entry

# normwise backward-error bound every solve must meet (acceptance criterion 9)
BACKWARD_ERROR_TOL = 1e-9
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_LOG_TINY = math.log(_TINY)
_ROUNDING_SLACK = 100.0


def matrix_inf_norm(spec) -> float:
    """Exact infinity norm (largest absolute row sum) of the matrix."""
    a, b, c = abs(spec.a), abs(spec.b), abs(spec.c)
    if spec.n == 1:
        return b
    if spec.n == 2:
        return b + max(a, c)
    return a + b + c


def backward_error(spec, x, rhs) -> float:
    """||A x - rhs||_inf / (||A||_inf ||x||_inf + ||rhs||_inf); NaN if x is not finite."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        return math.nan
    resid = float(np.max(np.abs(apply_matvec(spec, x) - rhs)))
    denom = matrix_inf_norm(spec) * float(np.max(np.abs(x))) + float(np.max(np.abs(rhs)))
    return resid / denom if denom > 0 else resid


def check_solve(spec, x, rhs):
    err = backward_error(spec, x, rhs)
    if not err <= BACKWARD_ERROR_TOL:
        return f"backward error {err:.3e} exceeds {BACKWARD_ERROR_TOL:g}"
    return None


def _sym(spec):
    s = math.sqrt(spec.a * spec.c)
    return s, s / spec.c


def reference_eigenvalues(spec) -> np.ndarray:
    """b + 2s cos(k pi/(n+1)), k = 1..n, evaluated here."""
    s, _ = _sym(spec)
    k = np.arange(1, spec.n + 1)
    return spec.b + 2.0 * s * np.cos(k * math.pi / (spec.n + 1))


def _scale(spec) -> float:
    s, _ = _sym(spec)
    return abs(spec.b) + 2.0 * s


def _check_log_product(label, sign, log_mag, gaps, scale, zero_log=None):
    """Compare (sign, log|value|) with prod(gaps) and its rounding allowance.

    ``zero_log``: the program may report sign 0 when log|value| lies below it.
    """
    absgaps = np.abs(gaps)
    ref_log = float(np.sum(np.log(absgaps)))
    ref_sign = -1 if int(np.sum(gaps < 0)) % 2 else 1
    slack = _ROUNDING_SLACK * _EPS * float(np.sum(scale / absgaps))
    tol = 1e-9 * max(1.0, abs(ref_log)) + slack
    if sign == 0:
        if zero_log is not None and ref_log <= zero_log + tol:
            return None
        return f"{label} reported as zero, reference log|value| {ref_log:.6g}"
    if abs(log_mag - ref_log) > tol:
        return f"{label} log|value| {log_mag:.12g} vs reference {ref_log:.12g}"
    if sign != ref_sign and slack < 0.5:
        return f"{label} sign {sign} vs reference {ref_sign}"
    return None


def check_determinant(spec, sv):
    lam = reference_eigenvalues(spec)
    return _check_log_product("det", sv.sign, sv.log_mag, lam, _scale(spec))


def check_char_poly(spec, t, sv):
    lam = reference_eigenvalues(spec)
    s, _ = _sym(spec)
    zero_log = spec.n * math.log(s) + math.log(1e-10)
    return _check_log_product("charpoly", sv.sign, sv.log_mag, t - lam,
                              _scale(spec) + abs(t), zero_log)


def check_eigenvalues(spec, lam, extremal):
    """Ends against extremal_eigenvalues, values against the reference."""
    lam = np.asarray(lam)
    scale = _scale(spec)
    ref = reference_eigenvalues(spec)
    if lam.shape != ref.shape or not np.all(np.isfinite(lam)):
        return "eigenvalues have the wrong shape or are not finite"
    if np.any(np.diff(lam) > 1e-12 * scale):
        return "eigenvalues are not in decreasing order"
    if abs(lam[0] - extremal.lambda_max) > 1e-12 * scale or \
            abs(lam[-1] - extremal.lambda_min) > 1e-12 * scale:
        return "eigenvalue ends disagree with extremal_eigenvalues"
    if float(np.max(np.abs(lam - ref))) > 1e-12 * scale:
        return "eigenvalues disagree with the reference"
    return None


def check_eigenvector(spec, k, vec):
    """A v = lambda_k v and unit weighted norm sum_j (v_j / q^(j-1))^2 = 1."""
    vec = np.asarray(vec)
    if vec.shape != (spec.n,) or not np.all(np.isfinite(vec)):
        return "eigenvector has the wrong shape or is not finite"
    lam = reference_eigenvalues(spec)[k - 1]
    vmax = float(np.max(np.abs(vec)))
    resid = float(np.max(np.abs(apply_matvec(spec, vec) - lam * vec)))
    if resid > 1e-10 * _scale(spec) * vmax:
        return f"eigen residual {resid:.3e} relative to |v| {vmax:.3e}"
    _, q = _sym(spec)
    unscaled = vec * np.exp(-np.arange(spec.n) * math.log(abs(q)))
    wnorm = float(np.sum(unscaled * unscaled))
    if abs(wnorm - 1.0) > 1e-10:
        return f"weighted norm^2 {wnorm!r} is not 1"
    return None


def check_condition(spec, report):
    lam = reference_eigenvalues(spec)
    absl = np.abs(lam)
    amin, amax = float(np.min(absl)), float(np.max(absl))
    scale = _scale(spec)
    tol = 1e-9 + _ROUNDING_SLACK * _EPS * scale / amin
    ref = amax / amin
    if not abs(report.cond_weighted / ref - 1.0) <= tol:
        return f"cond {report.cond_weighted!r} vs reference {ref!r}"
    if abs(report.lambda_max - lam[0]) > 1e-12 * scale or \
            abs(report.lambda_min - lam[-1]) > 1e-12 * scale:
        return "condition report extremes disagree with the reference"
    return None


def reference_inverse_entry(spec, i, j):
    """(A^-1)_ij = q^(i-j) sum_k (2/(n+1)) sin(ik pi/(n+1)) sin(jk pi/(n+1)) / lambda_k.

    Returns the value and the normwise scale |q|^(i-j) / min_k |lambda_k|.
    """
    n = spec.n
    _, q = _sym(spec)
    lam = reference_eigenvalues(spec)
    angle = np.arange(1, n + 1) * math.pi / (n + 1)
    sym = 2.0 / (n + 1) * float(np.sum(np.sin(i * angle) * np.sin(j * angle) / lam))
    qpow = math.copysign(1.0, q) ** (i - j) * math.exp((i - j) * math.log(abs(q)))
    return qpow * sym, abs(qpow) / float(np.min(np.abs(lam)))


def _logsinh(t: float) -> float:
    return t + math.log(-math.expm1(-2.0 * t)) - math.log(2.0)


def gapped_inverse_entry(spec, i, j):
    """Sign and log|(A^-1)_ij| for x = b/(2s) > 1 from the sinh closed form.

    (S^-1)_ij = (-1)^(i+j) sinh(lo g) sinh((n+1-hi) g) / (s sinh((n+1) g) sinh(g))
    with g = arccosh(x), and (A^-1)_ij = q^(i-j) (S^-1)_ij.
    """
    n = spec.n
    s, q = _sym(spec)
    g = math.acosh(spec.b / (2.0 * s))
    lo, hi = min(i, j), max(i, j)
    log_mag = (_logsinh(lo * g) + _logsinh((n + 1 - hi) * g) - _logsinh((n + 1) * g)
               - _logsinh(g) - math.log(s) + (i - j) * math.log(abs(q)))
    sign = (-1) ** (i + j) * (1 if q > 0 else -1) ** (i - j)
    return sign, log_mag


# below this x the sinh form is too sensitive to the rounding of x, and
# entries do not decay, so they are checked normwise instead
_GAPPED_X = 1.01


def check_inverse_entry(spec, i, j, value):
    """Relative to the sinh form when gapped, else normwise against the spectral sum."""
    s, _ = _sym(spec)
    if spec.b / (2.0 * s) > _GAPPED_X:
        sign, log_mag = gapped_inverse_entry(spec, i, j)
        ref = sign * math.exp(log_mag) if log_mag < 709.0 else math.inf
        ok = abs(value - ref) <= 1e-9 * abs(ref) + 1e-300
    else:
        ref, scale = reference_inverse_entry(spec, i, j)
        ok = abs(value - ref) <= 1e-9 * scale
    if not ok:
        return f"inverse entry ({i},{j}) {value!r} vs reference {ref!r}"
    return None


def check_decay_bound(spec, i, j, bound):
    """The bound equals the closed envelope (2/s)/(eta - 1/eta) |q|^(i-j) eta^-|i-j|
    and dominates the entry's sinh closed form."""
    s, q = _sym(spec)
    x = spec.b / (2.0 * s)
    eta = x + math.sqrt((x - 1.0) * (x + 1.0))
    env_log = (math.log(2.0 / s) - math.log(eta - 1.0 / eta)
               + (i - j) * math.log(abs(q)) - abs(i - j) * math.log(eta))
    tol = 1e-9 * max(1.0, abs(env_log))
    if env_log < _LOG_TINY:
        # below the normal range only the order of magnitude is representable
        if not 0.0 <= bound < _TINY:
            return f"decay bound {bound!r} vs envelope exp({env_log!r})"
    elif not (bound > 0.0 and abs(math.log(bound) - env_log) <= tol):
        return f"decay bound {bound!r} vs envelope exp({env_log!r})"
    _, entry_log = gapped_inverse_entry(spec, i, j)
    if entry_log > env_log + tol:
        return f"decay envelope exp({env_log!r}) below |entry| exp({entry_log!r})"
    return None


def repunit_int(m: int, d: int) -> int:
    return m if d == 1 else (d**m - 1) // (d - 1)


def check_repunit_det(d: int, n: int, exact: str):
    ref = repunit_int(n + 1, d)
    if exact != str(ref):
        return f"repunit det for d={d}, n={n} differs from R_(n+1)"
    return None


def check_repunit_inverse(spec, d: int, i: int, j: int, rational: Fraction):
    """The exact entry against the floating Green kernel of the same matrix."""
    got = inverse_entry(build_kernel(spec), i, j)
    ref = float(rational)
    if not abs(got - ref) <= 1e-9 * abs(ref) + 1e-300:
        return f"repunit inverse ({i},{j}) {ref!r} vs kernel {got!r}"
    return None
