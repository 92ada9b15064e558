"""The Dynkin and Eulerian idempotents and the kernel of the Dynkin idempotent.

Each projector onto the free Lie algebra has one production construction here:

* ``dynkin`` -- right-nested bracketing with a 1/n prefactor, applied to a
  whole homogeneous component at once through its letter parts,
  r(sum_a a p_a) = sum_a [a, r(p_a)], in integer arithmetic;
* ``eulerian_power_word`` -- e on a power word x_1^i_1 ... x_k^i_k through
  the run-length convolution recursion: the BCH series and the particular
  solution only ever need e on power words.

``kernel_generator``, ``psi`` and the Patras-Reutenauer elements gamma(a) a
build the kernel of gamma from ``dynkin``.  The independent constructions
that the tests play against these (the descent-class Dynkin sum, the S_n and
convolution Eulerian sums on arbitrary words, the explicit kernel elements
and a kernel basis) live in :mod:`kvlie.oracles`.

The run-length tables are memoised: words are plain tuples of letter indices,
so the caches are alphabet-agnostic.  The kernels sum in integers and divide
by one common denominator per component or word.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .algebra import NCPoly, Word, concat, integer_form, letter_part


# -- Dynkin idempotent --------------------------------------------------------


def _right_nested(terms: dict[Word, int]) -> dict[Word, int]:
    """r(p) = sum_a [a, r(p_a)] for p = sum_a a * p_a homogeneous of degree >= 1,
    with r the identity on letters: right-nested bracketing, each prefix shared
    by every word that starts with it."""
    groups: dict[int, dict[Word, int]] = {}
    for w, c in terms.items():
        groups.setdefault(w[0], {})[w[1:]] = c
    out: dict[Word, int] = {}
    for letter, rest in groups.items():
        head = (letter,)
        if () in rest:
            out[head] = rest[()]
            continue
        for w, c in _right_nested(rest).items():
            left, right = head + w, w + head
            out[left] = out.get(left, 0) + c
            out[right] = out.get(right, 0) - c
    return {w: c for w, c in out.items() if c}


def dynkin(p: NCPoly) -> NCPoly:
    """The Dynkin idempotent gamma; projects T(V) onto the free Lie algebra.

    gamma kills constants, fixes letters, and fixes exactly the Lie elements
    (Friedrichs criterion), so applying it twice equals applying it once.
    On the degree-n component, scaled to integers by the lcm D of its
    denominators, gamma is r / (n * D) with r the right-nested bracketing.
    """
    terms: dict[Word, Fraction] = {}
    for n in p.degrees():
        if n:
            ints, scale = integer_form(p.homogeneous_component(n).terms)
            terms.update((w, Fraction(c, n * scale)) for w, c in _right_nested(ints).items())
    return NCPoly._raw(p.alphabet, terms)


# -- Eulerian idempotent on power words ----------------------------------------

Segments = tuple[tuple[int, int], ...]


def _normalize_segments(segments: Segments) -> Segments:
    merged: list[list[int]] = []
    for letter, count in segments:
        if count < 0:
            raise ValueError("negative letter count")
        if count == 0:
            continue
        if merged and merged[-1][0] == letter:
            merged[-1][1] += count
        else:
            merged.append([letter, count])
    return tuple((l, c) for l, c in merged)


def _segments_word(segments: Segments) -> Word:
    out: list[int] = []
    for letter, count in segments:
        out.extend([letter] * count)
    return tuple(out)


@lru_cache(maxsize=None)
def _jstar_segments(k: int, segments: Segments) -> dict[Word, int]:
    """J*k on the power word described by ``segments`` ((letter, count) runs).

    A subsequence of a power word is determined by how many letters it takes
    from each run, with a binomial multiplicity per run; this keeps the
    convolution recursion polynomial-sized where the generic subset sum
    would be exponential in the degree.
    """
    total = sum(c for _, c in segments)
    if total == 0:
        return {}
    if k == 1:
        return {_segments_word(segments): 1}
    out: dict[Word, int] = {}
    choices = [range(c + 1) for _, c in segments]

    def rec(idx: int, taken: list[int], mult: int) -> None:
        if idx == len(segments):
            if not any(taken):
                return
            left: list[int] = []
            remainder: list[tuple[int, int]] = []
            for (letter, count), a in zip(segments, taken):
                left.extend([letter] * a)
                if count - a:
                    remainder.append((letter, count - a))
            left_word = tuple(left)
            for w, c in _jstar_segments(k - 1, _normalize_segments(tuple(remainder))).items():
                key = left_word + w
                out[key] = out.get(key, 0) + mult * c
            return
        letter, count = segments[idx]
        for a in choices[idx]:
            rec(idx + 1, taken + [a], mult * comb(count, a))

    rec(0, [], 1)
    return {w: c for w, c in out.items() if c}


@lru_cache(maxsize=None)
def _eulerian_segments(segments: Segments) -> dict[Word, Fraction]:
    """sum_k (-1)^(k-1) J*k / k, summed in integers over L = lcm(1..n) and
    divided by L once per word."""
    segments = _normalize_segments(segments)
    n = sum(c for _, c in segments)
    common = lcm(*range(1, n + 1))
    out: dict[Word, int] = {}
    for k in range(1, n + 1):
        weight = (-1) ** (k - 1) * (common // k)
        for w, c in _jstar_segments(k, segments).items():
            out[w] = out.get(w, 0) + weight * c
    return {w: Fraction(c, common) for w, c in out.items() if c}


def eulerian_power_word(alphabet, segments: Segments) -> NCPoly:
    """e applied to a power word letter0^c0 letter1^c1 ... given as runs.

    The production route for e: a subsequence of a power word is fixed by how
    many letters it takes from each run, so the cost stays polynomial in the
    degree where a sum over S_n (:func:`kvlie.oracles.eulerian`) is factorial.
    """
    segments = _normalize_segments(tuple(segments))
    if any(not 0 <= letter < alphabet.size for letter, _ in segments):
        raise ValueError(f"segments {segments} have letters outside the alphabet")
    return NCPoly._raw(alphabet, _eulerian_segments(segments))


# -- kernel of the Dynkin idempotent -------------------------------------------


def kernel_generator(p: NCPoly) -> NCPoly:
    """p - gamma(p); the complement projection onto the kernel of gamma."""
    return p - dynkin(p)


def patras_reutenauer_generator(a: NCPoly) -> NCPoly:
    """gamma(a) * a, a spanning element of the kernel of gamma.

    The input must be homogeneous: the kernel of gamma is graded and the
    product gamma(a_m) a_n of parts of different degrees leaves it.
    """
    if not a.is_homogeneous():
        raise ValueError("kernel generators gamma(a)a require homogeneous a")
    return concat(dynkin(a), a)


def psi(p: NCPoly, letter: str) -> NCPoly:
    """Psi_z(p) = gamma of the z-part of p - gamma(p); lands in the Lie algebra."""
    return dynkin(letter_part(kernel_generator(p), letter))
