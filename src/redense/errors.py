"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or unexpected dimensions."""


class NonFiniteError(ValueError):
    """A value crossing a public boundary contains NaN or Inf."""


class DataFormatError(ValueError):
    """A file does not match its declared on-disk format.

    ``offset`` is the byte position at which parsing failed, when known.
    """

    def __init__(self, message, path=None, offset=None):
        detail = message
        if path is not None:
            detail = f"{path}: {detail}"
        if offset is not None:
            detail = f"{detail} (byte offset {offset})"
        super().__init__(detail)
        self.path = path
        self.offset = offset


class TrainingDivergedError(RuntimeError):
    """Training hit a non-finite loss; carries the epoch it happened in."""

    def __init__(self, message, epoch):
        super().__init__(f"{message} (epoch {epoch})")
        self.epoch = epoch


class ConstraintError(ValueError):
    """A construction-time constraint was violated (e.g. projection width)."""
