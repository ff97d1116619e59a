"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter or argument lies outside the documented domain."""


class UnsupportedRegimeError(DomainError):
    """The request is well-formed but falls in a regime the method cannot serve.

    Example: the generalized Linnik density at 0 when alpha * nu <= 1,
    where it is infinite.
    """


class AccuracyError(RuntimeError):
    """The requested tolerance cannot be met within the configured budget."""
