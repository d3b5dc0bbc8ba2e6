"""Plain value records for the reports of the heavy layers.

A record class lists its fields in ``__slots__``, in positional order, and
``Record.__init__`` binds its arguments to them as a signature would; a
field named in the class's ``_defaults`` may be left out, and a ``dict`` or
``list`` default is copied for each instance.  Two records are equal when
they are of the same class and their ``_fields`` are equal; a slot outside
``_fields`` is neither compared nor shown.  ``Record`` is mutable and
unhashable, ``FrozenRecord`` is immutable and hashes its fields.  Importing
them loads no code generator for records.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...]  # set by each record class
    _defaults: dict = {}

    def __init__(self, *values, **named):
        slots, record = type(self).__slots__, type(self).__name__
        if len(values) > len(slots):
            raise TypeError(f"{record}() takes {len(slots)} arguments, {len(values)} given")
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)
        for name in slots[len(values):]:
            if name in named:
                value = named.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
                value = value.copy() if type(value) in (dict, list) else value
            else:
                raise TypeError(f"{record}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if named:
            name = next(iter(named))
            kind = "multiple values for" if name in slots else "an unexpected keyword"
            raise TypeError(f"{record}() got {kind} argument {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
