"""Exception hierarchy.

CLI exit codes: ``FormatError`` and I/O problems map to 1, ``DomainError``
subclasses (a precondition or mathematical-domain failure) to 2, and
``InternalCheckError`` (an internal consistency check that failed, which is
a bug in quivex rather than in its input) to 3.
"""


class QuivexError(Exception):
    """Base class for all library errors."""


class DomainError(QuivexError):
    """A precondition or mathematical-domain violation."""


class FormatError(QuivexError):
    """Malformed input file or JSON payload."""


class InternalCheckError(QuivexError):
    """An internal consistency check failed: two computations of the same
    number disagree, or a construction lost a property it must keep."""


class DimensionError(DomainError):
    """Matrix or block shapes do not conform."""


class QuiverMismatchError(DomainError):
    """Two objects live over different quivers, or a dimension vector or
    stability parameter is keyed to another vertex set (or order) than the
    quiver it is used with."""


class NotFlatError(DomainError):
    """The moment map does not vanish where flatness is required."""


class UnsupportedZetaError(DomainError):
    """Stability parameter outside the sign-definite regime."""


class BadPathError(DomainError):
    """A path whose consecutive arrows do not compose."""


class InconsistentSystemError(DomainError):
    """An exact linear system with no solution."""


class InvalidCartanError(DomainError):
    """A matrix that is not a symmetric generalized Cartan matrix."""


class CutoffError(DomainError):
    """A root-system height cutoff too small for the requested weight."""


class DependentClassesError(DomainError):
    """Extension classes that are dependent modulo the coboundaries."""


class WrongSetupError(DomainError):
    """A representation handed to a routine reserved for a named setup."""


class UnknownExampleError(DomainError):
    """Request for an example generator that does not exist."""
