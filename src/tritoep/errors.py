"""Exception types shared across the package.

All domain errors derive from :class:`TriToeplitzError` (itself a
``ValueError``), so callers can catch either the specific class or the
base.  Plain-value overflow is signalled with the builtin
``OverflowError`` rather than a custom class.
"""

__all__ = [
    "TriToeplitzError", "ZeroOffDiagonal", "InvalidOrder", "InvalidParameter",
    "NotSymmetrisable", "DimensionMismatch", "IndexOutOfRange", "SingularMatrix",
    "NearSingularPivot", "NotInGappedRegime", "InvalidBase", "ZeroVector",
]


class TriToeplitzError(ValueError):
    """Base class for all domain errors raised by this package."""


class ZeroOffDiagonal(TriToeplitzError):
    """An off-diagonal coefficient (a or c) is zero."""


class InvalidOrder(TriToeplitzError):
    """The matrix order n (or a sequence length m) is not a positive integer."""


class InvalidParameter(TriToeplitzError):
    """A coefficient is not a finite real number."""


class NotSymmetrisable(TriToeplitzError):
    """Requested an operation that needs a*c > 0 on a spec with a*c <= 0."""


class DimensionMismatch(TriToeplitzError):
    """Vector length does not match the matrix order."""


class IndexOutOfRange(TriToeplitzError):
    """A 1-based matrix index lies outside 1..n."""


class SingularMatrix(TriToeplitzError):
    """The matrix is singular (or numerically indistinguishable from singular)."""


class NearSingularPivot(TriToeplitzError):
    """Unpivoted tridiagonal elimination hit a pivot too close to zero."""


class NotInGappedRegime(TriToeplitzError):
    """Requested a result that only exists for x = b/(2s) > 1."""


class InvalidBase(TriToeplitzError):
    """Repunit base d is not positive (or not a positive integer on exact paths)."""


class ZeroVector(TriToeplitzError):
    """A nonzero vector was required."""
