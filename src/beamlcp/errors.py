"""Exception types shared across the package."""

from __future__ import annotations


class LcpError(Exception):
    """Base class for all beamlcp errors."""


class DimensionMismatch(LcpError):
    """Operands have incompatible shapes."""


class NotSymmetric(LcpError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(LcpError):
    """Cholesky factorization hit a nonpositive pivot."""


class RayTermination(LcpError):
    """Complementary pivoting left the feasible region on a secondary ray.

    For the problem classes this package targets a solution exists, so a ray
    signals either an out-of-class input or numerical trouble.
    """


class PivotLimitExceeded(LcpError):
    """Pivoting did not terminate within the configured pivot budget."""


class NumericalBreakdown(LcpError):
    """No admissible pivot: candidate entries all below the zero tolerance."""


class MaxIterationsExceeded(LcpError):
    """Iteration limit reached before the optimality residual converged.

    Attributes:
        last_d: the final iterate of the signed net-force vector.
        residual: the optimality residual at ``last_d``.
    """

    def __init__(self, message: str, last_d=None, residual: float | None = None):
        super().__init__(message)
        self.last_d = last_d
        self.residual = residual


class InvariantViolation(LcpError):
    """Structural invariant of a problem instance does not hold."""


class DimensionTooLarge(LcpError):
    """Problem dimension exceeds the exhaustive-enumeration cap."""


class OutOfDomain(LcpError):
    """A coordinate lies outside the open interval it must belong to."""


class DuplicatePositions(LcpError):
    """Stabilizer positions must be strictly increasing."""


class SchemaError(LcpError):
    """A problem or solution file does not match the expected schema.

    Attributes:
        field: dotted path of the offending field, when known.
    """

    def __init__(self, message: str, field: str | None = None):
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


#: Every error type above, so that a star import leaves out ``annotations``.
__all__ = [n for n, obj in globals().items() if isinstance(obj, type) and issubclass(obj, LcpError)]
