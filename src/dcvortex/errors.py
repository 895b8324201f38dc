"""Shared exception types."""


class ShapeError(ValueError):
    """Incompatible matrix-field shapes."""


class ConstraintError(ValueError):
    """A structural invariant of the input data is violated."""


class DomainError(ValueError):
    """Numerically invalid input (non-positive metric, bad constants)."""
