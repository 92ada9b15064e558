"""Symmetric group elements and their descent statistics (oracle support).

The permutation-sum constructions in :mod:`kvlie.oracles` run on this module;
no production module imports it.

Permutations of {1..n} are stored in one-line notation: ``images[i-1]`` is
sigma(i).  The descent set {i : sigma(i) > sigma(i+1)} is precomputed because
every idempotent formula is driven by descent counts.  Enumerations yield
permutations in lexicographic order of their images and are lazy, so memory
stays flat for large n.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator


class Permutation:
    __slots__ = ("images", "descent_set")

    def __init__(self, images: tuple[int, ...] | list[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{n}")
        self.images = images
        self.descent_set = frozenset(
            i + 1 for i in range(n - 1) if images[i] > images[i + 1]
        )

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def descent_count(self) -> int:
        return len(self.descent_set)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for pos, val in enumerate(self.images, start=1):
            inv[val - 1] = pos
        return Permutation(inv)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return "(" + ",".join(str(v) for v in self.images) + ")"


def permute_word(word: tuple[int, ...], perm: Permutation) -> tuple[int, ...]:
    """Right action on a word: position i of the result carries word[perm(i)]."""
    if perm.size != len(word):
        raise ValueError("permutation size does not match word degree")
    return tuple(word[s - 1] for s in perm.images)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def reversal(n: int) -> Permutation:
    """The order-reversing permutation (n, n-1, ..., 1)."""
    return Permutation(tuple(range(n, 0, -1)))


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """(sigma o tau)(i) = sigma(tau(i))."""
    if sigma.size != tau.size:
        raise ValueError("cannot compose permutations of different sizes")
    return Permutation(tuple(sigma.images[t - 1] for t in tau.images))


def inverse(sigma: Permutation) -> Permutation:
    return sigma.inverse()


def descent_set(sigma: Permutation) -> frozenset[int]:
    return sigma.descent_set


def descent_count(sigma: Permutation) -> int:
    return len(sigma.descent_set)


def enumerate_sn(n: int) -> Iterator[Permutation]:
    """All of S_n, lexicographic in one-line images."""
    if n < 1:
        raise ValueError("enumerate_sn requires n >= 1")
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def enumerate_descent_class(n: int, k: int) -> Iterator[Permutation]:
    """Permutations in S_n with descent set exactly {1, ..., k} (empty for k = 0).

    Such a permutation decreases strictly on positions 1..k+1 and increases
    strictly afterwards, so it is fixed by the set of values placed in the
    descending prefix; the prefix must contain the value 1 (else position
    k+1 -> k+2 would be a descent too).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= k <= n - 1:
        raise ValueError(f"descent class parameter k={k} out of range for n={n}")
    if k == n - 1:
        yield reversal(n)
        return
    results = []
    for chosen in itertools.combinations(range(2, n + 1), k):
        prefix = sorted((1,) + chosen, reverse=True)
        suffix = sorted(set(range(1, n + 1)) - set(prefix))
        results.append(tuple(prefix + suffix))
    for images in sorted(results):
        yield Permutation(images)


@lru_cache(maxsize=None)
def descent_class_images(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Cached raw image tuples of enumerate_descent_class, for the hot loops."""
    return tuple(p.images for p in enumerate_descent_class(n, k))


_SN_TABLE_LIMIT = 8


@lru_cache(maxsize=None)
def _sn_descents_cached(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    return tuple(
        (images, sum(1 for i in range(n - 1) if images[i] > images[i + 1]))
        for images in itertools.permutations(range(1, n + 1))
    )


def sn_with_descents(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(images, descent count) pairs over S_n; cached for small n, lazy above."""
    if n <= _SN_TABLE_LIMIT:
        return iter(_sn_descents_cached(n))
    return (
        (images, sum(1 for i in range(n - 1) if images[i] > images[i + 1]))
        for images in itertools.permutations(range(1, n + 1))
    )
