"""Exception hierarchy shared by all monorank modules.

CLI exit codes: 1 for internal faults (MonorankError itself, such as a
completion witness that fails its certificate), 2 for input/format
problems, 3 for genericity failures, 4 for resource-guard refusals.
"""


class MonorankError(Exception):
    """Base class for all monorank errors."""

    exit_code = 1


class FormatError(MonorankError):
    """Malformed input text (CSV, sign-vector file, sequence file)."""

    exit_code = 2


class DimensionMismatchError(MonorankError):
    """Operands whose lengths or dimensions do not agree."""

    exit_code = 2


class DomainError(MonorankError):
    """Input outside an operation's domain (zeros where forbidden, bad sizes)."""

    exit_code = 2


class GenericityError(MonorankError):
    """Tied column entries; column orders are undefined for ties."""

    exit_code = 3

    def __init__(self, message, ties=()):
        super().__init__(message)
        self.ties = tuple(ties)


class ResourceLimitError(MonorankError):
    """A search guard was exceeded; raise the guard explicitly to proceed."""

    exit_code = 4
