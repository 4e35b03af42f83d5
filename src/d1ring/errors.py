class UsageError(ValueError):
    """Operands disagree on group, field, or coefficient shape, or a
    parameter is out of its documented range."""


class FormatError(UsageError):
    """A serialized envelope or payload cannot be parsed."""


def _check_int(name: str, x) -> None:
    """Refuse x unless it is an int and not a bool; name is what the
    message calls it."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise UsageError(f"{name} must be an int, got {x!r}")
