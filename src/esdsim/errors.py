"""Exception types shared across the package."""


class InvalidDimension(ValueError):
    """A dimension parameter is outside the supported range."""


class IndexOutOfRange(ValueError):
    """A state-family or basis index is out of range."""


class AmbiguousPattern(RuntimeError):
    """Generated click-pattern supports are not pairwise disjoint."""


class DomainError(ValueError):
    """A rate formula was evaluated outside its domain."""


class NoRoot(RuntimeError):
    """Bracketed root finding could not locate a sign change."""
