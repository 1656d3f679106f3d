"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid user-supplied data: bad matrix, bad spec file, bad parameter."""


class PreconditionError(InputError):
    """An operation was called outside its stated domain (e.g. a level below
    the base average in the stopping-time decomposition)."""


class NumericalError(InputError):
    """A solve failed on valid-looking input: no convergence, or a root out of
    float range.  The message names the function and the quantity."""
