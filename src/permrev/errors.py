"""Shared exception types and the shared int argument checks.

Input-validation failures raise plain ``ValueError`` throughout the package;
the classes here cover the two situations that need to be told apart by
callers (and by the CLI exit-code mapping).
"""

from __future__ import annotations

from typing import Collection


def check_int(name: str, value: object, minimum: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an int, and >= ``minimum`` when
    that is given.

    A bool is not an int here, and neither is a float with an integral value.
    """
    if type(value) is not int or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an int{bound} (got {value!r})")


def check_points(name: str, values: object) -> tuple[int, ...]:
    """``values`` as a tuple; ValueError unless it is an iterable of ints.

    A bool is not an int here. Ranges are left to the caller, whose message
    names the bound.
    """
    try:
        points = tuple(values)
    except TypeError:
        points = None
    if points is None or not set(map(type, points)) <= {int}:
        raise ValueError(f"{name} must be a sequence of ints (got {values!r})")
    return points


def are_indices(values: Collection, stop: int) -> bool:
    """Whether every value is an int in ``range(stop)``; a bool is not.

    One pass of builtins over the values, for checking whole tables.
    """
    return set(map(type, values)) <= {int} and (
        not values or 0 <= min(values) and max(values) < stop
    )


class CapacityError(RuntimeError):
    """A configured size cap was exceeded before the computation finished.

    ``count`` records how far the computation got (states interned, group
    elements visited, ...) when it gave up; ``stage`` names the function
    whose cap it was, such as ``"reverse_construction"``.
    """

    def __init__(
        self, message: str, count: int | None = None, *, stage: str | None = None
    ) -> None:
        super().__init__(message)
        self.count = count
        self.stage = stage


class NotInGroupError(ValueError):
    """The target permutation is not generated by the given generators."""
