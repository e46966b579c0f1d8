"""Decay of the inverse for x = b/(2s) > 1, where entry (i, j) of the symmetrised
inverse falls off like eta^(-|i-j|), eta = x + sqrt(x^2 - 1): closed forms on
Python floats that need no kernel."""

from __future__ import annotations

import math

from . import _LAZY
from .cheby import _check_x, _log1mexp, eval_U_scaled
from .core import (SymmetrisedForm, TriToeplitzSpec, _beyond_range, _check_int, _exp_signed,
                   _record, symmetrise)
from .errors import IndexOutOfRange, NotInGappedRegime

__all__ = _LAZY["decay"]


@_record
class DecayEnvelope:
    """Geometric envelope of the symmetrised inverse for x > 1.

    Entry (i, j) of the symmetrised inverse is bounded by
    prefactor * eta^(-|i-j|).
    """

    eta: float
    prefactor: float


def _gapped(form: SymmetrisedForm) -> float:
    """gamma = arccosh(x); raises NotInGappedRegime unless x = b/(2s) > 1.

    An x past the float range (b/(2s) overflows) raises OverflowError, as
    every Chebyshev evaluation does.
    """
    if not form.x > 1.0:
        raise NotInGappedRegime(f"x = b/(2s) = {form.x!r} is not > 1")
    _check_x(form.x)
    return math.acosh(form.x)


def _log_prefactor(form: SymmetrisedForm, gamma: float) -> float:
    """log of the envelope prefactor 2/(s*(eta - 1/eta)) = 1/(s sinh(gamma)).

    -log s, as 2/s overflows below s ~ 1.1e-308; log sinh(gamma) = gamma +
    log(1 - e^(-2 gamma)) - log 2 holds for tiny and huge gamma alike.
    """
    return -math.log(form.s) - (gamma + _log1mexp(2.0 * gamma) - math.log(2.0))


def decay_envelope(spec: TriToeplitzSpec) -> DecayEnvelope:
    """Decay base eta = x + sqrt(x^2 - 1) and the envelope prefactor 2/(s*(eta - 1/eta)).

    Raises OverflowError when eta = e^gamma itself is past the float range
    (x above about 9e307).
    """
    form = symmetrise(spec)
    gamma = _gapped(form)
    x = form.x
    root = math.sqrt((x - 1.0) * (x + 1.0))
    if root == math.inf:  # the product overflows from x ~ 1.3e154
        root = x * math.sqrt((1.0 - 1.0 / x) * (1.0 + 1.0 / x))
    eta = x + root
    if eta == math.inf:
        raise _beyond_range("decay base eta", gamma)
    prefactor = _exp_signed(1, _log_prefactor(form, gamma), "decay prefactor")
    return DecayEnvelope(eta=eta, prefactor=prefactor)


def decay_bound(spec: TriToeplitzSpec, i: int, j: int) -> float:
    """Envelope bound (2/s) (eta - 1/eta)^-1 |q|^(i-j) eta^-|i-j| on |A^-1_(i,j)|."""
    form = symmetrise(spec)
    gamma = _gapped(form)
    i = _check_int(i, "index", 1, spec.n, IndexOutOfRange)
    j = _check_int(j, "index", 1, spec.n, IndexOutOfRange)
    log_bound = (_log_prefactor(form, gamma) + (i - j) * math.log(abs(form.q))
                 - abs(i - j) * gamma)
    return _exp_signed(1, log_bound, "decay bound (%d,%d)", i, j)


def hyperbolic_inverse_entry(form: SymmetrisedForm, i: int, j: int) -> float:
    """Symmetric-case inverse entry of the Green kernel, for x > 1.

    Entry (i, j) with lo = min(i, j) and hi = max(i, j) equals
    (-1)^(i+j) U_(lo-1)(x) U_(n-hi)(x) / (s U_n(x)), every U_m > 0 here,
    each taken in log space from ``eval_U_scaled``.
    """
    _gapped(form)
    i = _check_int(i, "index", 1, form.n, IndexOutOfRange)
    j = _check_int(j, "index", 1, form.n, IndexOutOfRange)
    lo, hi, n, x = min(i, j), max(i, j), form.n, form.x
    log_mag = (eval_U_scaled(lo - 1, x).log_mag + eval_U_scaled(n - hi, x).log_mag
               - eval_U_scaled(n, x).log_mag - math.log(form.s))
    return _exp_signed((-1.0) ** (i + j), log_mag, "inverse entry (%d,%d)", i, j)
