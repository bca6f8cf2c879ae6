"""Shared exception types, and the check of an int argument."""


class CapExceededError(RuntimeError):
    """An iteration or step cap was reached before the computation finished."""


class StructuralViolationError(RuntimeError):
    """An internal exactness invariant failed. Indicates a bug, not bad input."""


class VerticalDirectionError(ValueError):
    """Raised for slope-infinity directions, which no generator word produces."""


def _check_int(name: str, value: object, least: int | None = None) -> None:
    """Raise ValueError for a value that is not an int (a bool, a float) or is below `least`, 0 or 1."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'nonnegative'}, got {value}")
