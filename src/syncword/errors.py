"""Exception hierarchy.

InputError covers everything a caller can get wrong (bad files, bad codes,
violated preconditions); the CLI maps it to exit code 2.  Anything else that
escapes is an internal bug (exit code 3).
"""


class SyncwordError(Exception):
    pass


class InputError(SyncwordError):
    """Malformed input or violated precondition."""


class FormatError(InputError):
    """Bad automaton/code file; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotStronglyConnected(InputError):
    pass


class NotSynchronizing(InputError):
    pass


def require(ok, message):
    """A correctness check that also runs under python -O."""
    if not ok:
        raise SyncwordError(message)
