"""Shared error types for contract guards and theorem checks."""


class GuardError(ValueError):
    """A command's size guard refused its arguments before any work
    started (one row of cli._GUARDS; --override-guards skips it).
    Library calls are not guarded and never raise it."""


class TheoremViolation(AssertionError):
    """A computed decomposition disagrees with the proven closed form."""


class InfeasibleError(ValueError):
    """No assignment satisfies the requested multiplicity data."""
