"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and path problems are
usage errors (1), malformed or incompatible inputs are data errors (2),
and non-finite training state is a divergence error (3).
"""


class SebertNetsError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(SebertNetsError):
    """Operands have incompatible shapes. Message names both shapes."""


class ContractError(SebertNetsError):
    """A documented precondition was violated by the caller."""


class DegenerateMaskError(SebertNetsError):
    """A mask row selects no positions where at least one is required."""


class EmptyTextError(SebertNetsError):
    """Text is empty after cleaning."""


class DataError(SebertNetsError):
    """An input record is malformed. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GoldNotFoundError(SebertNetsError):
    """A gold entity does not occur in the (truncated) example text."""

    def __init__(self, example_id: str, entity: str):
        self.example_id = example_id
        self.entity = entity
        super().__init__(f"example {example_id!r}: gold entity {entity!r} not found in text")


class DecodeError(SebertNetsError):
    """No valid span candidate exists for an example, or its scores are
    not finite."""


class DivergenceError(SebertNetsError):
    """A loss or gradient became non-finite."""


class CheckpointError(SebertNetsError):
    """A checkpoint file is malformed. Carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"at byte {offset}: {message}"
        super().__init__(message)


class CompatibilityError(SebertNetsError):
    """A checkpoint does not match the requested configuration."""


class UsageError(SebertNetsError):
    """Bad command-line arguments or configuration."""
