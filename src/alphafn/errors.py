"""Exception hierarchy shared by the evaluation routes."""


class AlphaFnError(Exception):
    """Base class for all alphafn errors."""


class InvalidQueryError(AlphaFnError, ValueError):
    """An evaluation request violates a precondition (e.g. s < 1)."""


class DomainViolationError(AlphaFnError, ValueError):
    """A circle-integral argument lies outside the radius of convergence."""


class NonConvergenceError(AlphaFnError, ArithmeticError):
    """A series passed the double range before its stop, or a report route's
    error bound is not below |value|, so that it certifies no digit."""


class ToleranceNotReachedError(AlphaFnError, ArithmeticError):
    """A quadrature route has no result within its tolerance: node doubling
    hit the node budget first (``best`` is then the last level), no
    certified level of at most the node cap reaches tol, or a level mean is
    not finite or overflows (``best`` is then None).
    """

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


class ImaginaryResidueError(AlphaFnError, ArithmeticError):
    """A result promised to be real carries an imaginary part above threshold."""
