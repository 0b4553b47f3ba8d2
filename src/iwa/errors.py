"""Exception types shared across the library.

Every error raised on a violated precondition derives from IwaError so the
CLI can map library failures onto its exit codes in one place.
"""


class IwaError(Exception):
    """Base class for all library errors."""


class PrecisionExhausted(IwaError):
    """An operation needed more significant digits than the operands carry."""


class DivideByZero(IwaError):
    """Inversion of a scalar that is zero at working precision."""


class InvalidResidue(IwaError):
    """Residue input outside the expected range (e.g. divisible by p)."""


class InvalidParameter(IwaError):
    """Structural parameter out of range (bad prime, weight, sign, ...)."""


class DegenerateInput(IwaError):
    """Input collapses a precondition (e.g. x = 1 where x != 1 is required)."""


class ShapeMismatch(IwaError):
    """Operands live in different rings or have incompatible grids."""


class BadLevel(IwaError):
    """Level index m outside the range supported at the ambient level n."""


class NotDivisible(IwaError):
    """Exact division requested for an element that is not a multiple."""


class NotAUnit(IwaError):
    """Inversion requested for an element that is not p^v times a unit of Z_p[G]."""


class BadConductor(IwaError):
    """Character level incompatible with the element it is applied to."""


class TrivialCharacter(IwaError):
    """Gauss sum of the trivial character is not defined here."""


class BadIndex(IwaError):
    """Index outside the declared range."""


class NotDecomposable(IwaError):
    """Pair fails the divisibility required by the signed decomposition."""


class UnboundedResult(IwaError):
    """Decomposition succeeded but violates the integrality floor."""


class MalformedInput(IwaError):
    """Unparseable or schema-violating external input."""
