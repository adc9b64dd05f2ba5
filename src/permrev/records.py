"""Immutable value records: the one base class of every report and automaton.

A subclass declares its fields as class annotations, in order, and gives a
field a default by assigning it in the class body. It gets positional and
keyword construction, a ``__post_init__`` hook that runs once the fields
are set, ``==`` over the class and the field values with a ``hash`` to
match, the repr ``Name(field=value, ...)`` and an instance ``__dict__``
that holds exactly the fields in declaration order (so ``vars(record)``
is the record as a dict). Assigning or deleting an attribute raises
``AttributeError``; ``__post_init__`` may normalise a field with
``object.__setattr__``.

This is what frozen standard-library data classes gave these records,
without importing that module, which loads ``inspect`` and, through it,
``ast``, ``dis`` and ``tokenize``, and without ``exec``-ing generated
methods for each class: together about 40% of the time of
``import permrev``.
"""

from __future__ import annotations

from typing import TypeVar

R = TypeVar("R", bound="Record")

# Fields are set one by one through object.__setattr__, never through the
# instance __dict__: touching the dict makes CPython (3.11) keep the values
# in a dict of their own, and every attribute read of such an instance
# slower.
_set = object.__setattr__


class Record:
    """Base of a frozen record; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # The names of the class's own annotations, in declaration order;
        # their values are never read.
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {
            name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__
        }

    def __init__(self, *args: object, **kwargs: object) -> None:
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} arguments but "
                f"{len(args)} were given"
            )
        for name, value in zip(fields, args):
            _set(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif name in cls._defaults:
                _set(self, name, cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "got multiple values for" if name in fields else "has no"
            raise TypeError(f"{cls.__name__}() {problem} argument {name!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check or normalise the fields; a subclass overrides this."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values())
        fields = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{type(self).__qualname__}({fields})"


def replace(record: R, /, **changes: object) -> R:
    """A copy of ``record`` with ``changes`` applied, built through the
    constructor, so that ``__post_init__`` checks it again."""
    return type(record)(**dict(zip(record._fields, record._values()), **changes))
