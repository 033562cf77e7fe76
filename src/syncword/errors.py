"""Exceptions, the require check, and Value, the base of the value types.

InputError covers everything a caller can get wrong (bad files, bad codes,
violated preconditions); the CLI maps it to exit code 2.  Anything else that
escapes is an internal bug (exit code 3).  Every module of the package
imports this one, so Value costs no import of its own.
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


class Value:
    """Base of the package's immutable value types.

    A subclass lists its constructor fields in order in _fields; every
    field must be given.  ==, hash and repr use the fields in _compare and
    _shown, all of _fields unless the class lists others; == holds only
    between values of the same class.  __init__ sets the fields, then calls
    __post_init__ if the class has one.  No attribute can be set or deleted
    afterwards, except through object.__setattr__ or __dict__, which fill
    the caches inside a value.  The methods are written out rather
    than generated: the standard data-class generator costs a CLI job about
    5 ms of imports (inspect, ast, dis) and 0.3-0.55 ms per class.
    """

    _fields = ()

    def __init_subclass__(cls):
        for listed in "_compare", "_shown":
            if listed not in vars(cls):
                setattr(cls, listed, cls._fields)

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        if len(args) > len(names) or values.keys() != set(names) or \
                not kwargs.keys().isdisjoint(names[:len(args)]):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(names)}, each once")
        self.__dict__.update(values)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple(getattr(self, name) for name in self._compare)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes):
        """A copy with the given fields changed, built by __init__."""
        return type(self)(**{**{name: getattr(self, name)
                                for name in self._fields}, **changes})
