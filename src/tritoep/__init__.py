"""Closed-form toolkit for real tridiagonal Toeplitz matrices with a*c > 0.

Diagonal symmetrisation, explicit eigenpairs, Chebyshev determinants, a
semiseparable inverse kernel with O(n) apply and decay bounds, sharp
weighted condition numbers, and exact big-integer repunit identities --
all cross-checked against a naive dense oracle.
"""

import sys as _sys
from types import ModuleType as _ModuleType

# core and errors load with the package; their __all__ are its first public names
from .core import *  # noqa: F403
from .core import __all__ as _CORE
from .errors import *  # noqa: F403
from .errors import __all__ as _ERRORS

# The public names of the other submodules, by submodule.  They are
# resolved on first access (PEP 562), so a process loads only the
# submodules it uses: a CLI subcommand pays for its own modules alone.
_LAZY = {
    "cheby": ("ScaledValue", "eval_U", "eval_U_recurrence", "eval_U_scaled",
              "u_sequence_scaled"),
    "spectral": ("EigenPair", "SpectrumSummary", "char_poly_eval", "determinant",
                 "determinant_continuant", "eigen_pair", "eigenvalues", "eigenvector",
                 "extremal_eigenvalues"),
    "greens": ("GreenKernel", "apply_inverse", "build_kernel", "inverse_dense",
               "inverse_entry", "thomas_solve"),
    "decay": ("DecayEnvelope", "decay_bound", "decay_envelope", "hyperbolic_inverse_entry"),
    "conditioning": ("ConditionReport", "weighted_condition", "weighted_inner",
                     "weighted_norm", "weighted_operator_norm"),
    "repunit": ("RepunitInverseEntry", "RepunitValue", "cheb_repunit_identity_residual",
                "cosine_product", "cosine_product_log", "log_repunit", "repunit",
                "repunit_condition", "repunit_det_exact", "repunit_inverse_entry",
                "repunit_matrix_spec"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def _submodule(module):
    # __import__, unlike importlib.import_module, shows in python -X importtime
    __import__(f"{__name__}.{module}")
    return _sys.modules[f"{__name__}.{module}"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        if name in _LAZY:  # the submodule itself, before anything imported it
            return _submodule(name)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAZY))


class _Package(_ModuleType):
    """The package module, whose attribute ``repunit`` is always the function.

    Importing a submodule binds it as an attribute of its package, so a
    first ``import tritoep.repunit`` would shadow the function of that name.
    """

    def __setattr__(self, name, value):
        if name == "repunit" and isinstance(value, _ModuleType):
            value = value.repunit
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package

__version__ = "0.1.0"

__all__ = ["__version__", *_CORE, *_ERRORS, *_MODULE_OF]
