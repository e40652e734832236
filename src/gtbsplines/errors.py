"""Exception and warning types shared across the package."""


class GTBError(Exception):
    """Base class for all library errors."""


class ConfigError(GTBError, ValueError):
    """A space description violates the admissibility bounds or is malformed."""


class DomainError(GTBError, ValueError):
    """An evaluation point lies outside the admissible interval."""


class OrderError(GTBError, ValueError):
    """A derivative order exceeds what the local space supports."""


class InvalidFamilyError(GTBError, ValueError):
    """Section-family parameters do not define a valid Tchebycheff space."""


class EctViolationError(GTBError):
    """An endpoint collocation matrix is singular; the section is not an
    extended Tchebycheff space on its interval."""


class BasisNonexistenceError(GTBError):
    """The smoothness-constraint cascade degenerated: the requested B-spline-like
    basis does not exist (or is numerically indistinguishable from nonexistent).

    Attributes
    ----------
    breakpoint_index, order : int or None
        Location (interior breakpoint index, derivative order) of the
        offending smoothness constraint, when known.
    """

    def __init__(self, message, breakpoint_index=None, order=None):
        super().__init__(message)
        self.breakpoint_index = breakpoint_index
        self.order = order


class InsertionError(GTBError, ValueError):
    """A knot-insertion request violates its preconditions."""


class OracleUnsupportedError(GTBError):
    """The integral-recurrence oracle cannot handle this section family."""


class AdmissibilityWarning(UserWarning):
    """A joint uses the maximal smoothness order, where existence of the
    B-spline-like basis is no longer guaranteed by the built-in weights."""


class ConditioningWarning(UserWarning):
    """A linear solve had an estimated condition number above 1e12.

    Attributes
    ----------
    condition : float or None
        The estimated condition number, when known.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition
