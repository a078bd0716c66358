"""Error types shared across the solver.

Every exception carries a stable machine-readable ``code`` that the
experiment runner echoes into reports.
"""


class SolverError(Exception):
    """Base class for all solver errors."""

    code = "E_ERROR"


class NumericError(SolverError):
    """A quantity that must be finite is NaN or infinite."""

    code = "E_NUMERIC"


class GridError(SolverError):
    """A time is not a node of the grid it must align with."""

    code = "E_GRID"


class ContractionError(SolverError):
    """The implicit backward step is not a contraction (dt * Lipschitz >= 1)."""

    code = "E_CONTRACTION"


class SingularRegressionError(SolverError):
    """A ridged regression normal system was singular or gave non-finite values."""

    code = "E_SINGULAR"


class DomainError(SolverError):
    """Evaluation requested outside the fitted domain box."""

    code = "E_DOMAIN"


class ZeroDenominatorError(SolverError):
    """A ratio has a zero denominator but a nonzero numerator."""

    code = "E_DIVZERO"


class StabilityError(SolverError):
    """Explicit part of the FD scheme violates its stability bound."""

    code = "E_STABILITY"


class BoundaryError(SolverError):
    """Jump shifts leave the padded FD grid beyond the allowed margin."""

    code = "E_BOUNDARY"


class TailError(SolverError):
    """Truncated series tail exceeds tolerance."""

    code = "E_TAIL"


class QuadratureError(SolverError):
    """Quadrature tail contribution too large for the requested integral."""

    code = "E_QUAD"


class ConfigError(SolverError):
    """Invalid experiment configuration (unknown key, bad value)."""

    code = "E_CONFIG"


class SchemaError(SolverError):
    """Experiment configuration has a type mismatch."""

    code = "E_SCHEMA"
