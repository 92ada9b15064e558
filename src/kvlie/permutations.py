"""The two enumerations of S_n that the permutation sums read (oracle support).

The permutation-sum constructions in :mod:`kvlie.oracles` run on this module;
no production module imports it.

A permutation of {1..n} is its tuple of images in one-line notation:
``images[i-1]`` is sigma(i).  Both enumerations list S_n, or a part of it, in
lexicographic order of the images.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator


@lru_cache(maxsize=None)
def descent_class_images(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Images of the permutations in S_n with descent set exactly {1, ..., k}
    (empty for k = 0).

    Such a permutation decreases strictly on positions 1..k+1 and increases
    strictly afterwards, so it is fixed by the set of values placed in the
    descending prefix; the prefix must contain the value 1 (else position
    k+1 -> k+2 would be a descent too).
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"descent class parameter k={k} out of range for n={n}")
    images = []
    for chosen in itertools.combinations(range(2, n + 1), k):
        prefix = sorted((1,) + chosen, reverse=True)
        images.append(tuple(prefix + sorted(set(range(1, n + 1)) - set(prefix))))
    return tuple(sorted(images))


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
