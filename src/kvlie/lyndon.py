"""Oracle support: Lyndon words, standard bracketings, and Lie membership by
Lyndon elimination.

The standard bracketings of Lyndon words form a basis of each homogeneous
piece of the free Lie algebra, and the expansion of such a bracketing is
unitriangular against the word basis: the Lyndon word itself appears with
coefficient 1 and every other word is lexicographically larger.  That makes
Lie membership a linear elimination with no generic linear algebra.

``to_lie_coordinates`` is the Lie-membership oracle for
:func:`kvlie.kv._certify_lie`; only :mod:`kvlie.oracles` and the tests import
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush

from .algebra import Alphabet, NCPoly, Word
from .idempotents import NotLieElementError


def is_lyndon(word: Word) -> bool:
    """True when the word is strictly smaller than all of its proper suffixes."""
    n = len(word)
    if n == 0:
        return False
    return all(word < word[i:] for i in range(1, n))


@lru_cache(maxsize=None)
def _lyndon_words(k: int, n: int) -> tuple[Word, ...]:
    """Duval's generation of all Lyndon words of length n over k letters."""
    out: list[Word] = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == n:
            out.append(tuple(w))
        while len(w) < n:
            w.append(w[len(w) - m])
        while w and w[-1] == k - 1:
            w.pop()
    return tuple(sorted(out))


def standard_factorization(word: Word) -> int:
    """Split position of the standard factorisation w = uv.

    v is the lexicographically least proper suffix; both halves are Lyndon.
    """
    n = len(word)
    if n < 2:
        return 0
    return min(range(1, n), key=lambda i: word[i:])


def lyndon_words(alphabet: Alphabet | int, n: int) -> list[Word]:
    """All Lyndon words of degree n, lexicographically ordered."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    k = alphabet if isinstance(alphabet, int) else alphabet.size
    return list(_lyndon_words(k, n))


@lru_cache(maxsize=None)
def _standard_bracketing_word(word: Word) -> dict[Word, int]:
    if len(word) == 1:
        return {word: 1}
    split = standard_factorization(word)
    left = _standard_bracketing_word(word[:split])
    right = _standard_bracketing_word(word[split:])
    out: dict[Word, int] = {}
    for wl, cl in left.items():
        for wr, cr in right.items():
            c = cl * cr
            key = wl + wr
            out[key] = out.get(key, 0) + c
            key = wr + wl
            out[key] = out.get(key, 0) - c
    return {w: c for w, c in out.items() if c}


def standard_bracketing(alphabet: Alphabet, word: Word) -> NCPoly:
    """The Lie element obtained by bracketing the Lyndon word at its standard factorisation."""
    if not is_lyndon(word):
        raise ValueError(f"{word} is not a Lyndon word")
    return NCPoly(alphabet, _standard_bracketing_word(word))


@dataclass(frozen=True)
class LieCoordinates:
    """Coordinates of a homogeneous Lie element in the Lyndon basis."""

    degree: int
    coords: dict[Word, Fraction]


def to_lie_coordinates(p: NCPoly) -> LieCoordinates:
    """Express a homogeneous polynomial in the Lyndon basis, or fail.

    Repeatedly reads the lexicographically least remaining word; by
    unitriangularity it must be Lyndon with the coordinate as coefficient,
    and subtracting that bracketing only leaves larger words.  The
    elimination runs in place on a copy of the integer numerators of p,
    visiting words through a heap.
    """
    if not p.is_homogeneous():
        raise ValueError("to_lie_coordinates requires a homogeneous polynomial")
    if not p:
        return LieCoordinates(0, {})
    residual, scale = dict(p.numerators), p.scale
    heap = list(residual)
    heapify(heap)
    coords: dict[Word, Fraction] = {}
    while heap:
        word = heappop(heap)
        coeff = residual.get(word)
        if coeff is None:
            continue  # cancelled since it was pushed
        if not is_lyndon(word):
            break
        coords[word] = Fraction(coeff, scale)
        for w, c in _standard_bracketing_word(word).items():
            acc = residual.get(w)
            if acc is None:
                residual[w] = -coeff * c
                heappush(heap, w)
            elif acc == coeff * c:
                del residual[w]
            else:
                residual[w] = acc - coeff * c
    if residual:
        raise NotLieElementError(NCPoly._raw(p.alphabet, residual, scale))
    return LieCoordinates(p.max_degree(), coords)


def from_lie_coordinates(alphabet: Alphabet, coords: LieCoordinates) -> NCPoly:
    total = NCPoly.zero(alphabet)
    for word, coeff in coords.coords.items():
        total = total + standard_bracketing(alphabet, word).scaled(coeff)
    return total


def is_lie_element(p: NCPoly) -> bool:
    if not p:
        return True
    try:
        for d in p.degrees():
            to_lie_coordinates(p.homogeneous_component(d))
    except NotLieElementError:
        return False
    return True
