"""Base classes for the value types, in place of ``dataclasses``.

Importing ``dataclasses`` (which imports ``inspect``) costs several
milliseconds, more than a small command's own work, so the value types are
``__slots__`` classes on these two bases.  They give what a dataclass
generates: equality with an instance of the same class only, the hash of the
field tuple (frozen records only) and the repr ``Name(field=value, ...)``.
"""

from __future__ import annotations


class Record:
    """A mutable, unhashable record.

    A subclass lists its fields in ``__slots__`` and returns the compared
    ones, which come first there, from ``_key``; equality, hash and repr read
    ``_key`` only.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A hashable record whose fields are set once, in ``__init__``, through
    ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
