"""Shared exception types and the shared argument checks.

Input-validation failures raise plain ``ValueError`` throughout the package;
the classes here cover the two situations that need to be told apart by
callers (and by the CLI exit-code mapping).
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter, lt
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


def check_index(name: str, value: object, stop: int) -> None:
    """ValueError unless ``value``, a state or a letter, is an int in
    ``range(stop)``; a bool is not an int here."""
    if type(value) is not int or not 0 <= value < stop:
        raise ValueError(f"{name} {value!r} is out of range")


def check_subset(name: str, values: object, n: int) -> tuple[int, ...]:
    """``values`` as a sorted tuple; ValueError unless it is a set of points
    of [n], in any order and with no point repeated."""
    points = tuple(sorted(check_points(name, values)))
    if len(set(points)) != len(points):
        raise ValueError(f"{name} {points} has repeated points")
    for i in points:
        if not 0 <= i < n:
            raise ValueError(f"point {i} is out of range for n={n}")
    return points


def are_subset_states(subsets: object, stop: int) -> bool:
    """Whether ``subsets`` is a collection of strictly increasing tuples of
    ints in ``range(stop)``, a bool not an int. Each test is one pass of
    builtins that streams the members; no list of them is built."""
    if not isinstance(subsets, Collection) or not set(map(type, subsets)) <= {tuple}:
        return False
    tails = map(itemgetter(slice(1, None)), subsets)
    return (
        set(map(type, chain.from_iterable(subsets))) <= {int}
        and all(map(all, map(map, repeat(lt), subsets, tails)))
        and min(map(itemgetter(0), filter(None, subsets)), default=0) >= 0
        and max(map(itemgetter(-1), filter(None, subsets)), default=-1) < stop
    )


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
