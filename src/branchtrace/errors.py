"""Exception types shared across the package."""


class BranchTraceError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BranchTraceError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class ResourceError(BranchTraceError):
    """A requested computation exceeds a configured size cap."""


class InconsistentTrace(BranchTraceError):
    """A branch string does not describe any trajectory ending at the
    given terminal value.

    ``index`` is the 0-based position (in forward trace order) of the
    symbol whose inverse step failed.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class KeyLengthError(DomainError):
    """A digest key does not have the required length."""


def require_int(value, name: str, least: int | None = None) -> None:
    """Raise :class:`DomainError` unless ``value`` is an int, not a bool,
    of at least ``least`` when one is given."""
    if not isinstance(value, int) or isinstance(value, bool) or (
            least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{name} must be an integer{bound}, got {value!r}")


def require_member(value, kind, name: str) -> None:
    """Raise :class:`DomainError` unless ``value`` is an instance of the
    class ``kind``; for an enum, a member's value alone (``"wrap"``) is
    not one."""
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__}, got {value!r}")
