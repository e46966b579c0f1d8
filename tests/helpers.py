"""Shared independent oracles for the test suite.

Everything here is deliberately separate from the library's production
paths: exact rational recursions, dense sign-change bisection, and random
spec samplers with documented magnitude envelopes.
"""

import math
from fractions import Fraction

import numpy as np

from tritoep import NearSingularPivot, make_spec, repunit_inverse_entry
from tritoep.oracle import dense_from_spec, lu_det


def u_exact(m: int, x: float) -> Fraction:
    """U_m at the exact rational value of the float x, by exact recursion.

    With x = p / 2^k (every float is one), V_j = 2^(kj) U_j satisfies the
    integer recursion V_(j+1) = 2p V_j - 4^k V_(j-1), V_0 = 1, V_1 = 2p,
    so no rational arithmetic is needed until the final division.
    """
    if m == -1:
        return Fraction(0)
    xf = Fraction(x)
    p, k = xf.numerator, xf.denominator.bit_length() - 1
    four_k = 4**k
    prev, cur = 1, 2 * p
    if m == 0:
        return Fraction(prev)
    for _ in range(m - 1):
        prev, cur = cur, 2 * p * cur - four_k * prev
    return Fraction(cur, 2 ** (k * m))


def _inverse_factors(spec):
    """Entry (i, j) of the exact inverse as a row factor times a column factor.

    With the leading minors theta_0 = 1, theta_1 = b and theta_k =
    b theta_(k-1) - a c theta_(k-2), entry (i, j) is (-1)^(i+j) c^(j-i)
    theta_(i-1) theta_(n-j) / theta_n for i <= j, and (-1)^(i+j) a^(i-j)
    theta_(j-1) theta_(n-i) / theta_n below the diagonal (Usmani, 1994).
    Returns a function of 0-based (i, j) giving the two Fractions, or None
    when theta_n = 0.
    """
    a, b, c, n = Fraction(spec.a), Fraction(spec.b), Fraction(spec.c), spec.n
    theta = [Fraction(1), b]
    for _ in range(n - 1):
        theta.append(b * theta[-1] - a * c * theta[-2])
    if theta[n] == 0:
        return None
    # row and column factors of the upper (i <= j) and the lower triangle
    upper = ([(-1) ** i * theta[i - 1] / c**i for i in range(1, n + 1)],
             [(-1) ** j * c**j * theta[n - j] / theta[n] for j in range(1, n + 1)])
    lower = ([(-1) ** i * a**i * theta[n - i] / theta[n] for i in range(1, n + 1)],
             [(-1) ** j * theta[j - 1] / a**j for j in range(1, n + 1)])

    def factors(i, j):
        row, col = upper if i <= j else lower
        return row[i], col[j]

    return factors


def inverse_exact(spec):
    """The inverse of the float matrix in exact arithmetic, each entry rounded once.

    An entry past the float range reads +-inf; returns None when the matrix
    is singular (see ``_inverse_factors``).
    """
    factors = _inverse_factors(spec)
    if factors is None:
        return None
    n = spec.n
    inv = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            row, col = factors(i, j)
            num = row.numerator * col.numerator
            den = row.denominator * col.denominator
            try:
                inv[i, j] = num / den  # Python int / int rounds correctly
            except OverflowError:
                inv[i, j] = math.inf if (num > 0) == (den > 0) else -math.inf
    return inv


def inverse_log_abs(spec):
    """log|entry (i, j)| of the exact inverse, -inf for a zero entry, past the
    float range too; None when the matrix is singular."""
    factors = _inverse_factors(spec)
    if factors is None:
        return None
    n = spec.n
    logs = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            row, col = factors(i, j)
            logs[i, j] = log_abs_fraction(row) + log_abs_fraction(col) if row and col else -math.inf
    return logs


ALT_SCALING_NOTE = (
    "The alternative inverse-entry prefactor (-1)^(i+j) * d^((i-j)/2) / sqrt(d) "
    "is inconsistent with the inverse kernel: for d = 10, n = 2 it gives -1/1110 "
    "at entry (1, 2) while the dense inverse gives -1/111.  The implemented form "
    "(-1)^(i+j) * R_i * R_{n+1-j} / R_{n+1} (times d^(i-j) below the diagonal) "
    "satisfies V * V^(-1) = I in exact rational arithmetic."
)


def inverse_entry_alt_scaling(d: int, n: int, i: int, j: int):
    """The rejected d^((i-j)/2)/sqrt(d)-scaled variant of the repunit inverse entry.

    Returns an exact Fraction when the extra exponent (i - j - 1)/2 is an
    integer and a float otherwise.  See ALT_SCALING_NOTE: the variant
    fails the exact identity V * V^(-1) = I; it is kept here so that the
    discrepancy stays documented and tested.
    """
    entry = repunit_inverse_entry(d, n, i, j)
    # the plain entry without its d^(i-j) factor below the diagonal
    base = entry.value
    if entry.i > entry.j:
        base /= Fraction(d) ** (entry.i - entry.j)
    exponent = entry.i - entry.j - 1
    if exponent % 2 == 0:
        return base * Fraction(d) ** (exponent // 2)
    return float(base) * d ** (exponent / 2.0)


def log_abs_fraction(fr: Fraction) -> float:
    """Natural log of |fr| using big-integer logs; fr must be nonzero."""
    return math.log(abs(fr.numerator)) - math.log(fr.denominator)


def repunit_fraction(m: int, d: Fraction) -> Fraction:
    """R_m(d) summed term by term in exact rational arithmetic."""
    term = Fraction(1)
    total = Fraction(0)
    for _ in range(m):
        total += term
        term *= d
    return total


def eigenvalues_by_bisection(spec, grid_points=4096, iters=80):
    """Dense-oracle eigenvalues: bracket sign changes of det(tI - A), bisect.

    Only intended for small n (distinct eigenvalues, fine grid); uses the
    naive elimination determinant, nothing shared with the closed forms.
    """
    dense = dense_from_spec(spec)
    n = spec.n
    radius = abs(spec.b) + 2.0 * math.sqrt(abs(spec.a * spec.c)) + 1.0
    ts = np.linspace(spec.b - radius, spec.b + radius, grid_points)
    dets = np.array([lu_det(t * np.eye(n) - dense) for t in ts])
    roots = []
    for i in range(len(ts) - 1):
        if dets[i] == 0.0:
            roots.append(ts[i])
            continue
        if dets[i] * dets[i + 1] < 0:
            lo, hi = ts[i], ts[i + 1]
            flo = dets[i]
            for _ in range(iters):
                mid = 0.5 * (lo + hi)
                fmid = lu_det(mid * np.eye(n) - dense)
                if fmid == 0.0:
                    lo = hi = mid
                    break
                if flo * fmid < 0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            roots.append(0.5 * (lo + hi))
    return np.sort(np.array(roots))


def thomas_reference(spec, rhs):
    """Unpivoted tridiagonal elimination as a plain indexed loop.

    Each row reads its predecessors from the lists, in the float order
    thomas_solve fixes; it raises NearSingularPivot with thomas_solve's
    message when a pivot magnitude is at most 1e-300 times the row scale,
    and has no backward-error check.
    """
    n = spec.n
    a, b, c = spec.a, spec.b, spec.c
    threshold = 1e-300 * spec.row_scale()
    w = [0.0] * n
    z = np.asarray(rhs, dtype=float).tolist()
    piv = b
    if abs(piv) <= threshold:
        raise NearSingularPivot(f"pivot {piv!r} at row 1 below tolerance")
    w[0] = c / piv
    z[0] /= piv
    for k in range(1, n):
        piv = b - a * w[k - 1]
        if abs(piv) <= threshold:
            raise NearSingularPivot(f"pivot {piv!r} at row {k + 1} below tolerance")
        w[k] = c / piv
        z[k] = (z[k] - a * z[k - 1]) / piv
    for k in range(n - 2, -1, -1):
        z[k] -= w[k] * z[k + 1]
    return np.array(z)


def random_symmetrisable_spec(rng, n_max=50, n_min=1, q_span=1.0, x_range=None):
    """A random spec with a*c > 0 and moderate magnitudes.

    Off-diagonals are log-uniform in e^[-q_span, q_span] with a shared
    random sign, which keeps |q| in e^[-q_span, q_span]; b is either
    uniform in [-3s, 3s] or pinned so that x = b/(2s) lands in x_range.
    """
    n = int(rng.integers(n_min, n_max + 1))
    sign = -1.0 if rng.random() < 0.5 else 1.0
    a = sign * math.exp(rng.uniform(-q_span, q_span))
    c = sign * math.exp(rng.uniform(-q_span, q_span))
    s = math.sqrt(a * c)
    if x_range is None:
        b = rng.uniform(-3.0, 3.0) * s
    else:
        b = 2.0 * s * rng.uniform(*x_range)
    return make_spec(a, b, c, n)


def random_invertible_spec(rng, n_max=50, margin=1e-6, **kw):
    """Random symmetrisable spec rejected until comfortably invertible."""
    from tritoep import build_kernel
    from tritoep.cheby import eval_U_scaled
    from tritoep.core import symmetrise

    while True:
        spec = random_symmetrisable_spec(rng, n_max=n_max, **kw)
        form = symmetrise(spec)
        un = eval_U_scaled(spec.n, form.x)
        un1 = eval_U_scaled(spec.n - 1, form.x) if spec.n > 1 else None
        anchor = max(0.0, un1.log_mag) if un1 is not None else 0.0
        if un.sign != 0 and un.log_mag > math.log(margin) + anchor:
            kernel = build_kernel(spec)
            if kernel.invertible:
                return spec, kernel
