"""Exception types shared across the package."""


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but numerically degenerate (e.g. a zero row)."""


class IndexOutOfRangeError(IndexError):
    """Row or label index outside the valid range."""


class ConfigError(ValueError):
    """Invalid configuration value or unknown configuration key."""


class FormatError(ValueError):
    """Malformed binary or text payload; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CheckpointFormatError(FormatError):
    """Checkpoint file failed magic, version or length validation."""


class DivergenceError(RuntimeError):
    """Training produced non-finite values, or a trained model gives non-finite
    outputs; carries the global step index when training was under way."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None else f"{message} (step {step})")
        self.step = step
