"""Exception hierarchy shared across the package."""


class InvarsetsError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(InvarsetsError):
    """Bad arguments: dimension mismatches, out-of-range parameters,
    references to provably empty sets, malformed configurations."""


class NumericError(InvarsetsError):
    """A computation produced non-finite values or a numerical
    factorization failed."""


class IntegrationError(InvarsetsError):
    """Time integration could not be completed.

    ``last_good_time`` holds the last time the integrator reached before
    giving up.
    """

    def __init__(self, message: str, last_good_time: float):
        super().__init__(message)
        self.last_good_time = last_good_time
