"""Exception types shared across the package."""


class DQError(Exception):
    """Base class for library-specific errors."""


class IndeterminateAtTruncation(DQError):
    """A zero/sign decision would need terms beyond the stored truncation."""


class InexactDivision(DQError):
    """Ring division has no finite exact quotient."""


class NotPositive(DQError):
    """Square root requested of an element that is not strictly positive."""


class IrrationalLeadingCoefficient(DQError):
    """Leading coefficient is not the square of a rational."""


class HermitianViolation(DQError):
    """Matrix fails the hermitian symmetry invariant."""


class PreconditionViolated(DQError):
    """Input does not satisfy a documented precondition of the check."""


class DimensionTooSmall(DQError):
    """The check needs at least two observables/rows."""


class DimensionMismatch(DQError):
    """Operands live on phase spaces of different dimension."""


class NotReal(DQError):
    """Observable fails the reality condition (conjugate differs)."""


class SingularTransform(DQError):
    """The supplied linear transformation is not invertible."""


class IndexOutOfRange(DQError):
    """Coordinate index exceeds the declared number of degrees of freedom."""


class MomentDegreeExceeded(DQError):
    """Moment evaluation above the degree cap."""


class InternalConsistencyError(DQError):
    """Two independent computations of the same quantity disagree; a bug."""


class ExprSyntaxError(DQError):
    """Positioned syntax error for the expression parsers."""

    def __init__(self, message: str, text: str, pos: int):
        self.message = message
        self.text = text
        self.pos = pos
        self.line = 1 + text.count("\n", 0, pos)
        last_nl = text.rfind("\n", 0, pos)
        self.column = pos - last_nl
        super().__init__(f"{message} at line {self.line}, column {self.column}")


class AdmissibilityWarning(UserWarning):
    """State parameters do not guarantee positivity of the functional."""
