"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


class PatternError(ValueError):
    """A sparsity pattern is invalid or cannot be applied to the given shape."""


class StoreFormatError(ValueError):
    """A tensor store file is malformed.

    ``offset`` is the byte position at which parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class StateError(RuntimeError):
    """An operation was invoked in a state that cannot support it."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite at ``step``; ``last_good_step`` is the one before."""

    def __init__(self, step: int):
        self.step = step
        self.last_good_step = step - 1
        super().__init__(
            f"non-finite loss at step {step}; last good step was {self.last_good_step}"
        )
