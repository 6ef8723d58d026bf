"""Exception types shared across the package."""


class QMarginalsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(QMarginalsError):
    """Operands have incompatible shapes or factor dimensions."""


class NotHermitian(QMarginalsError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPSD(QMarginalsError):
    """Matrix has an eigenvalue below the negative tolerance band.

    Carries the offending eigenvalue in ``min_eigenvalue``.
    """

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class TraceNotOne(QMarginalsError):
    """Trace differs from 1 beyond tolerance.  Carries the actual ``trace``."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class NotUnitary(QMarginalsError):
    """Matrix columns are not orthonormal within tolerance."""


class NoConvergence(QMarginalsError):
    """An iteration exhausted its budget.  For the scaling search the partial
    result travels with the exception (``report`` and ``kraus``)."""

    def __init__(self, message, report=None, kraus=None):
        super().__init__(message)
        self.report = report
        self.kraus = kraus


class SingularScaling(QMarginalsError):
    """An intermediate marginal sum lost rank relative to its target, so the
    scaling step cannot reach the target support."""


class InfeasibleRank(QMarginalsError):
    """The requested number of Kraus operators can never satisfy the
    independence condition (r exceeds the Parthasarathy bound, that is
    r^2 >= n^2 + m^2)."""
