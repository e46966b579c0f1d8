"""Dense brute-force reference implementations, and the verify cross-checks.

Deliberately naive: row-pivoted Gaussian elimination with no structure
exploitation, O(n^3), trusted because there is nothing clever to get
wrong.  ``lu_solve`` is the one checked solve (``dense_inverse`` runs it on
the identity); it refuses a pivot of at most n eps max|m|, relative to the
matrix alone, so m times 2^k solves as m does.  Used by the test suites
and by :func:`verify_checks` (the CLI's verify mode), never on the
library's fast paths.  Dense matrices are plain (n, n) float arrays; n up
to a few hundred is the intended envelope.

:func:`verify_checks` compares the library's closed forms (eigenpairs,
determinant, Green kernel, weighted condition number, repunit identities)
with these routines, and R_(n+1)(d) with the continuant, which production
does not run.  None of its checks sees the matrix's scale: a spec times
2^k gets the same verdicts.  The dense routines import nothing from the
production modules; ``verify_checks`` imports those it checks when it runs.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _WRONSKIAN_TOL, TriToeplitzSpec
from .errors import DimensionMismatch, SingularMatrix, ZeroVector

__all__ = [
    "dense_from_spec",
    "lu_solve",
    "lu_det",
    "dense_inverse",
    "eigen_check",
    "verify_checks",
]

# the largest order verify_checks is meant for
ORACLE_ENVELOPE = 200

_VERIFY_TOLS = {
    "similarity": 1e-12,
    "eigen": 1e-11,
    "determinant": 1e-9,
    "inverse": 1e-9,
    "wronskian": _WRONSKIAN_TOL,
    "conditioning": 1e-10,
    "repunit": 1e-10,
}


def dense_from_spec(spec: TriToeplitzSpec) -> np.ndarray:
    """Materialise the matrix: diagonal b, subdiagonal a, superdiagonal c."""
    n = spec.n
    m = np.zeros((n, n))
    idx = np.arange(n)
    m[idx, idx] = spec.b
    m[idx[1:], idx[:-1]] = spec.a
    m[idx[:-1], idx[1:]] = spec.c
    return m


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _lu_factor(m: np.ndarray):
    """In-place LU with partial pivoting; returns (lu, swaps, parity)."""
    lu = np.array(m, dtype=float)
    n = lu.shape[0]
    swaps = np.arange(n)
    parity = 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        swaps[k] = p
        if p != k:
            lu[[k, p], :] = lu[[p, k], :]
            parity = -parity
        pivot = lu[k, k]
        if pivot != 0.0 and k + 1 < n:
            lu[k + 1 :, k] /= pivot
            lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, swaps, parity


def _pivot_tolerance(m: np.ndarray) -> float:
    return m.shape[0] * np.finfo(float).eps * float(np.max(np.abs(m)))


def lu_solve(m, rhs) -> np.ndarray:
    """Solve m x = rhs, rhs of shape (n,) or (n, k), by elimination with partial pivoting.

    Raises SingularMatrix for a pivot of at most n eps max|m|, and
    OverflowError when a finite rhs has a solution past the float range.
    """
    m = _as_square(m)
    y = np.array(rhs, dtype=float)  # a copy, overwritten with the solution
    if y.shape[:1] != m.shape[:1] or y.ndim > 2:
        raise DimensionMismatch(f"rhs shape {y.shape} does not match matrix order {len(m)}")
    lu, swaps, _ = _lu_factor(m)
    if np.min(np.abs(np.diag(lu))) <= _pivot_tolerance(m):
        raise SingularMatrix("numerically zero pivot during elimination")
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(m)):
            if swaps[k] != k:
                y[[k, swaps[k]]] = y[[swaps[k], k]]
        for k in range(1, len(m)):
            y[k] -= lu[k, :k] @ y[:k]
        for k in range(len(m) - 1, -1, -1):
            y[k] = (y[k] - lu[k, k + 1 :] @ y[k + 1 :]) / lu[k, k]
    if np.isfinite(rhs).all() and not np.isfinite(y).all():
        raise OverflowError("the solution leaves the float range")
    return y


def lu_det(m) -> float:
    """Determinant via pivoted elimination; 0.0 for singular input."""
    m = _as_square(m)
    lu, _, parity = _lu_factor(m)
    return float(parity * np.prod(np.diag(lu)))


def _logabsdet(m) -> tuple[float, float]:
    """(sign, log|det|); sign 0.0 with log -inf for singular input."""
    m = _as_square(m)
    lu, _, parity = _lu_factor(m)
    diag = np.diag(lu)
    if np.any(diag == 0.0):
        return 0.0, -np.inf
    sign = parity * np.prod(np.sign(diag))
    return float(sign), float(np.sum(np.log(np.abs(diag))))


def dense_inverse(m) -> np.ndarray:
    """:func:`lu_solve` against the identity."""
    m = _as_square(m)
    return lu_solve(m, np.eye(m.shape[0]))


def eigen_check(m, value: float, vector) -> float:
    """Residual ||m v - value v||_inf / ||v||_inf."""
    m = _as_square(m)
    v = np.asarray(vector, dtype=float)
    if v.shape != (m.shape[0],):
        raise DimensionMismatch(
            f"vector shape {v.shape} does not match matrix order {m.shape[0]}"
        )
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        raise ZeroVector("eigenvector candidate must be nonzero")
    return float(np.max(np.abs(m @ v - value * v))) / scale


def _check(name, residual, rounding=None):
    # a miss that the spec's rounding bound reaches too is a SKIP; a NaN fails
    tolerance = _VERIFY_TOLS[name]
    ill = rounding is not None and residual > tolerance and rounding >= tolerance
    status = "PASS" if residual <= tolerance else "SKIP (ill-conditioned)" if ill else "FAIL"
    return {"name": name, "residual": residual, "tolerance": tolerance,
            "status": status}


def _skip(name, reason):
    return {"name": name, "residual": None, "tolerance": None,
            "status": f"SKIP ({reason})"}


def verify_checks(spec: TriToeplitzSpec, singular_tol: float) -> list[dict]:
    """Cross-check the library's closed forms for ``spec`` against the dense routines.

    Returns one dict per check, in a fixed order, with its name, residual,
    tolerance and status ("PASS", "FAIL" or "SKIP (reason)", the last with
    residual and tolerance None but for "ill-conditioned"): the similarity,
    the eigenpairs, the determinant, the kernel inverse and its Wronskian,
    the weighted condition number and, for a repunit matrix of integer
    base, the exact repunit identities.  Meant for n up to
    ``ORACLE_ENVELOPE``.  A determinant, inverse or conditioning residual
    that misses its tolerance where the spec's rounding bound n eps
    (|b| + 2s) / min|lambda| reaches it too is "SKIP (ill-conditioned)".
    """
    from .cheby import _check_x
    from .conditioning import weighted_condition
    from .core import _times_spread, make_spec, symmetrise
    from .greens import build_kernel, inverse_dense, inverse_entry
    from .repunit import repunit, repunit_det_exact, repunit_inverse_entry
    from .spectral import determinant, determinant_continuant, eigen_pair, eigenvalues

    checks = []
    form = symmetrise(spec)
    n, s, q = spec.n, form.s, form.q
    # a b/s (so an x) or an eigenvalue past the float range is refused
    # before any check computes with it
    _check_x(spec.b / s)
    lam = eigenvalues(spec)
    dense = dense_from_spec(spec)
    # the symmetrised matrix, for the checks that the raw q powers defeat
    sym_spec = make_spec(s, spec.b, s, n)
    sym_dense = dense_from_spec(sym_spec)
    scale = spec.row_scale()

    # similarity: the conjugated off-diagonals must both equal s
    sim = max(abs(spec.c * q - s), abs(spec.a / q - s)) / s
    checks.append(_check("similarity", sim))

    # eigen residuals, on A while its eigenvectors' q powers stay below
    # 1e280, otherwise on the symmetrised matrix
    if (n - 1) * math.log(abs(q)) < math.log(1e280):
        vec_spec, mat = spec, dense
    else:
        vec_spec, mat = sym_spec, sym_dense
    vecs = np.column_stack([eigen_pair(vec_spec, k).right_vector for k in range(1, n + 1)])
    # on A/4, lambda/4 and the row scale of A/4 where |a| + |b| + |c| is past
    # the float range, as _times_spread does: a power of two scales exactly
    lam_r = lam
    if scale == math.inf:
        mat, lam_r, scale = mat / 4, lam / 4, abs(spec.a) / 4 + abs(spec.b) / 4 + abs(spec.c) / 4
    resid = mat @ vecs - vecs * lam_r[None, :]
    eig_resid = float(
        np.max(np.max(np.abs(resid), axis=0)
               / (scale * np.max(np.abs(vecs), axis=0)))
    )
    checks.append(_check("eigen", eig_resid))
    # the closed forms are accurate to a few eps of |b| + 2s, not of max|lambda|
    # (at n = 1, 2s cos(pi/2) rounds to 1.2e-16 s)
    lam_min = float(np.min(np.abs(lam)))
    rounding = _times_spread(n * 2.0**-52, spec.b, s) / lam_min if lam_min else math.inf

    # determinant: closed form vs continuant vs dense elimination
    det_closed = determinant(spec)
    det_cont = determinant_continuant(spec)
    osign, olog = _logabsdet(dense)
    if osign == 0.0:
        # an exact zero pivot that the raw q^(i-j) scaling makes; the
        # determinant is invariant under the similarity
        osign, olog = _logabsdet(sym_dense)
    if det_closed.sign == 0 or det_cont.sign == 0 or osign == 0.0:
        checks.append(_skip("determinant", "singular"))
    elif det_closed.sign != det_cont.sign or float(osign) != float(det_closed.sign):
        checks.append(_check("determinant", math.inf, rounding))
    else:
        anchor = max(1.0, abs(det_closed.log_mag))
        dresid = max(abs(det_closed.log_mag - det_cont.log_mag),
                     abs(det_closed.log_mag - olog)) / anchor
        checks.append(_check("determinant", dresid, rounding))

    # inverse kernel vs dense inverse, plus the Wronskian constancy
    try:
        kernel = build_kernel(spec, singular_tol=singular_tol)
        kernel_skip = None if kernel.invertible else "singular"
    except SingularMatrix:  # refused by the Wronskian self-check; the other checks run
        kernel_skip = "kernel: SingularMatrix"
    if kernel_skip:
        checks.append(_skip("inverse", kernel_skip))
        checks.append(_skip("wronskian", kernel_skip))
    else:
        side = "kernel"
        try:
            kinv = inverse_dense(kernel)
            side = "dense oracle"
            try:
                dinv = dense_inverse(dense)
            except SingularMatrix:
                # the raw q^(i-j) scaling defeats the oracle's pivots, so compare
                # on the symmetrised matrix, whose inverse is kinv times q^(j-i)
                dinv = dense_inverse(sym_dense)
                d = np.subtract.outer(np.arange(n), np.arange(n))
                with np.errstate(divide="ignore"):
                    kinv = (np.sign(kinv) * np.sign(q) ** d
                            * np.exp(np.log(np.abs(kinv)) - d * math.log(abs(q))))
            iresid = float(np.max(np.abs(kinv - dinv)) / np.max(np.abs(dinv)))
            checks.append(_check("inverse", iresid, rounding))
        except (SingularMatrix, OverflowError) as exc:
            checks.append(_skip("inverse", f"{side}: {type(exc).__name__}"))
        checks.append(_check("wronskian", kernel.wronskian_residual))

    # weighted conditioning vs a dense symmetric eigensolve
    try:
        rep = weighted_condition(spec, singular_tol=singular_tol)
    except SingularMatrix:
        checks.append(_skip("conditioning", "singular"))
    else:
        lam_dense = np.linalg.eigvalsh(sym_dense)
        dense_ratio = float(np.max(np.abs(lam_dense)) / np.min(np.abs(lam_dense)))
        cresid = abs(rep.cond_weighted / dense_ratio - 1.0)
        checks.append(_check("conditioning", cresid, rounding))

    # repunit identities when the spec is the repunit matrix with integer base
    if spec.c == 1.0 and float(spec.a).is_integer() and spec.a >= 1.0 \
            and spec.b == spec.a + 1.0:
        d = int(spec.a)
        exact_ok = repunit_det_exact(d, n) == repunit(n + 1, d).exact_value
        rresid = 0.0 if exact_ok else math.inf
        if not kernel_skip:
            for (ii, jj) in {(1, 1), (1, n), (n, 1)}:
                exact = repunit_inverse_entry(d, n, ii, jj).float_value
                got = inverse_entry(kernel, ii, jj)
                rresid = max(rresid, abs(got - exact) / max(abs(exact), 1e-300))
        checks.append(_check("repunit", rresid))

    return checks
