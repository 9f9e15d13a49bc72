"""Exception hierarchy shared across the package.

A fit whose training loss becomes non-finite raises NumericError, as every
other non-finite computation does; no error type is particular to training."""


class SymforgeError(Exception):
    """Base class for all symforge errors."""


class InvalidDescriptorError(SymforgeError):
    """A group descriptor violates its structural constraints."""


class DimensionError(SymforgeError):
    """Vector/matrix sizes do not match the operation's contract."""


class EnumerationTooLargeError(SymforgeError):
    """Group enumeration would exceed the configured size guard."""


class NotInImageError(SymforgeError):
    """A pair matrix is not in the image of the requested rho variant."""


class NumericError(SymforgeError):
    """Non-finite values encountered during a numeric computation, among
    them a training loss that became non-finite: a fit that diverged."""


class GenerationError(SymforgeError):
    """A generated training split has a degenerate target range."""
