"""Shared error types for contract guards and theorem checks."""


class GuardError(ValueError):
    """A command's size guard refused its arguments before any work
    started (the guard of its record in cli._COMMANDS; --override-guards
    skips it).  Library calls are not guarded and never raise it."""


class ModuleAuditError(AssertionError):
    """A constructed module or subspace fails its audit: an action
    violates the defining relations, a character is not Weyl symmetric,
    or an exact kernel fails its certificate (qarith.sp_kernel)."""


class TheoremViolation(AssertionError):
    """A computed decomposition disagrees with the proven closed form."""


class InfeasibleError(ValueError):
    """No assignment satisfies the requested multiplicity data."""
