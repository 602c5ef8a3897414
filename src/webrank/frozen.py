"""The base of webrank's immutable value classes."""

from __future__ import annotations


class Frozen:
    """An immutable record whose fields are the names in its class's own
    __slots__, in order.

    The constructor takes every field, by position or by name.  Equality
    compares the field tuples of two instances of one class, and the hash
    is the field tuple's, so records can be set members and dict keys.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()  # each field's slot setter, which __setattr__ bars

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__slots__", ()))
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls._fields)

    def __init__(self, *values, **named) -> None:
        fields = self._fields
        if named:
            values += tuple(
                named.pop(name) for name in fields[len(values) :] if name in named
            )
        if len(values) != len(fields) or named:
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        """Field-tuple equality within one class.  No CLI job compares or
        hashes two records; the tests compare parsed trees, balanced sets
        and modes."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        """Class name and fields; no CLI job prints one, the tests'
        assertion messages do."""
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        """Refuses assignment and deletion: no CLI job changes a record,
        and the tests check that none can."""
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__
