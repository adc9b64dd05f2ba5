"""Permutations of [n], their action on k-subsets, orbits, word synthesis.

A permutation is a tuple of images: ``p[i]`` is where point ``i`` goes.
Points are 0-based internally; user-facing labels add one so that printed
subsets read like the 1-based set notation ("1234" for {1,2,3,4}).
K-subsets are sorted tuples of points, keyed where needed by their
colexicographic rank (the combinatorial number system).
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations
from typing import Iterator, Sequence

from .errors import (
    CapacityError, NotInGroupError, check_index, check_int, check_points, check_subset
)

Perm = tuple[int, ...]
KSubset = tuple[int, ...]

# Group BFS refuses to grow past this many elements (8! covers n <= 8).
MAX_GROUP_ELEMENTS = 40_320


def identity_perm(n: int) -> Perm:
    check_int("n", n, 1)
    return tuple(range(n))


def cycle_perm(n: int) -> Perm:
    """The full cycle: point i goes to i+1, the last point wraps to the first.

    Raises ValueError unless ``n`` is an int >= 1.
    """
    check_int("n", n, 1)
    return tuple((i + 1) % n for i in range(n))


def transposition_perm(n: int) -> Perm:
    """The transposition swapping the first two points.

    Raises ValueError unless ``n`` is an int >= 2.
    """
    check_int("n", n, 2)
    return (1, 0) + tuple(range(2, n))


def perm_compose(p: Perm, q: Perm) -> Perm:
    """"p then q": the result maps i to q(p(i)).

    Folding a word's letters through this operator left to right gives the
    permutation the word induces, matching how words act on states.
    ValueError unless p and q permute the same points.
    """
    _check_generators((p, q))
    return _compose(p, q)


def _compose(p: Perm, q: Perm) -> Perm:
    """``perm_compose`` of two checked permutations."""
    return tuple(map(q.__getitem__, p))


def perm_inverse(p: Perm) -> Perm:
    """The permutation undoing p; ValueError unless p permutes range(len(p))."""
    return tuple(sorted(range(_check_generators((p,))), key=p.__getitem__))


def perm_from_word(generators: Sequence[Perm], word: Sequence[int]) -> Perm:
    """Compose the generators named by ``word``, left to right."""
    acc = identity_perm(_check_generators(generators))
    for c in check_points("word", word):
        check_index("letter", c, len(generators))
        acc = _compose(acc, generators[c])
    return acc


def act_on_subset(p: Perm, subset: KSubset) -> KSubset:
    """Image of a subset under p, re-sorted."""
    points = check_subset("subset", subset, _check_generators((p,)))
    return tuple(sorted(map(p.__getitem__, points)))


def colex_rank(subset: KSubset) -> int:
    """Colexicographic rank of a sorted k-subset of {0..n-1}."""
    subset = check_points("subset", subset)
    return sum(math.comb(c, j + 1) for j, c in enumerate(subset))


def colex_unrank(rank: int, n: int, k: int) -> KSubset:
    """The k-subset of {0..n-1} with the given colexicographic rank.

    Raises ValueError unless ``n``, ``k`` and ``rank`` are ints >= 0 and
    ``rank`` is below C(n, k).
    """
    check_int("n", n, 0)
    check_int("k", k, 0)
    check_int("rank", rank, 0)
    if rank >= math.comb(n, k):
        raise ValueError(f"rank {rank} out of range for {k}-subsets of [{n}]")
    out = [0] * k
    r = rank
    c = n
    for j in range(k, 0, -1):
        c -= 1
        while math.comb(c, j) > r:
            c -= 1
        out[j - 1] = c
        r -= math.comb(c, j)
    return tuple(out)


def ksubsets(n: int, k: int) -> Iterator[KSubset]:
    """All k-subsets of {0..n-1} in colexicographic order.

    The subsets are enumerated in one step, so the first one costs as much
    memory as all of them. Raises ValueError unless ``n`` and ``k`` are
    ints >= 0.
    """
    check_int("n", n, 0)
    check_int("k", k, 0)
    # combinations over the points in decreasing order list the reversed
    # subsets in decreasing colexicographic order.
    descending = list(combinations(range(n - 1, -1, -1), k))
    return (x[::-1] for x in reversed(descending))


def _check_generators(generators: Sequence[Perm]) -> int:
    """The common point count n; each generator must permute range(n)."""
    if not isinstance(generators, (list, tuple)) or not generators:
        raise ValueError("generators must be a nonempty list or tuple")
    n = len(check_points("generator", generators[0]))
    for g in generators:
        if sorted(check_points("generator", g)) != [*range(n)]:
            raise ValueError(f"{g} is not a permutation of [{n}]")
    return n


def orbit(generators: Sequence[Perm], seed: KSubset) -> list[KSubset]:
    """BFS closure of ``seed`` under the generators, in discovery order.

    A subset has one form, its sorted tuple, so subsets are deduplicated by
    hashing; neighbors expand in generator order, so the discovery order is
    deterministic.
    """
    seed = check_subset("seed", seed, _check_generators(generators))
    seen = {seed}
    order = [seed]
    for x in order:  # grows while it is walked: BFS order
        for g in generators:
            y = tuple(sorted(map(g.__getitem__, x)))
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order


def synthesize_word(
    generators: Sequence[Perm],
    target: Perm,
    max_group_size: int = MAX_GROUP_ELEMENTS,
) -> tuple[int, ...]:
    """A shortest word over the generators whose composition equals ``target``.

    BFS over the generated group with generator-index tie-break. Raises
    NotInGroupError once the closure is exhausted without hitting the target,
    and CapacityError if the closure grows past ``max_group_size``.
    """
    n = _check_generators(generators)
    target = check_points("target", target)
    if len(target) != n:
        raise ValueError(f"size mismatch: target on {len(target)} points, n={n}")
    ident = identity_perm(n)
    parent: dict[Perm, tuple[Perm, int] | None] = {ident: None}
    queue = deque([ident])
    while queue:
        cur = queue.popleft()
        if cur == target:
            word: list[int] = []
            node = cur
            while parent[node] is not None:
                node, letter = parent[node]
                word.append(letter)
            return tuple(reversed(word))
        for idx, g in enumerate(generators):
            nxt = _compose(cur, g)
            if nxt not in parent:
                if len(parent) >= max_group_size:
                    raise CapacityError(
                        f"group closure exceeded {max_group_size} elements",
                        count=len(parent),
                        stage="synthesize_word",
                    )
                parent[nxt] = (cur, idx)
                queue.append(nxt)
    raise NotInGroupError("target is not generated by the given permutations")
