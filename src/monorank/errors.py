"""Exception hierarchy shared by all monorank modules.

CLI exit codes: 1 for internal faults (MonorankError itself, such as a
completion witness that fails its certificate), 2 for input/format
problems, 3 for genericity failures, 4 for resource-guard refusals.  The
CLI reads its inputs as UTF-8, so undecodable bytes are a FormatError,
and it reports an OSError (an input it cannot read, an output it cannot
write) under the OSError's own class name, also with exit code 2.

A refusal that shows a caller's value formats it with _shown, since
Python refuses to print an int of more digits than
sys.get_int_max_str_digits() (4,300 by default).
"""

import math


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


def _shown(value) -> str:
    """repr(value) for an error message.  An int too long for Python to
    print is shown by its digit count instead, and any other value Python
    cannot print (one holding such an int) by its type."""
    try:
        return repr(value)
    except ValueError:
        pass
    if not isinstance(value, int):
        return f"a {type(value).__name__} holding an integer too long to print"
    size = abs(value)
    digits = int(size.bit_length() * math.log10(2)) - 1  # at most two short
    while size >= 10**digits:
        digits += 1
    return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"
