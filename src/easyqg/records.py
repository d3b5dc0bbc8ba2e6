"""Plain value records for the reports of the heavy layers.

A record class names its fields in ``_fields``, in positional order, keeps
them in ``__slots__`` and sets them in its own ``__init__``.  Two records
are equal when they are of the same class and their ``_fields`` are equal;
a field outside ``_fields`` (a slot of its own) is neither compared nor
shown.  ``Record`` is mutable and unhashable, ``FrozenRecord`` is
immutable and hashes its fields.  The heavy layers build their reports
from these, so importing them loads no code generator for records.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...]  # set by each record class

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

    def _set(self, **fields) -> None:
        """Set fields once, from ``__init__``."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
