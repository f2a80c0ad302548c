"""Exception types shared across the package."""


class InvalidDimension(ValueError):
    """A dimension parameter is outside the supported range."""


class IndexOutOfRange(ValueError):
    """A state-family or basis index is out of range."""


class OverlappingModes(ValueError):
    """Photons could meet in one optical mode: tensor operands share a mode,
    or a dense evolution finds two or more photons in one time-bin."""


class PortMismatch(ValueError):
    """A photon occupies a port that a port unitary does not cover."""


class AmbiguousPattern(RuntimeError):
    """Generated click-pattern supports are not pairwise disjoint."""


class DomainError(ValueError):
    """A rate formula was evaluated outside its domain."""


class NoRoot(RuntimeError):
    """Bracketed root finding could not locate a sign change."""
