"""Exception hierarchy shared across the package."""


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
    """Non-finite values encountered during a numeric computation."""


class TrainingDivergedError(SymforgeError):
    """SGD produced a non-finite loss; carries the last finite loss seen."""

    def __init__(self, message, last_loss):
        super().__init__(message)
        self.last_loss = last_loss


class GenerationError(SymforgeError):
    """A generated training split has a degenerate target range."""
