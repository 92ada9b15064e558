"""The Dynkin and Eulerian idempotents and the kernel-of-Dynkin machinery.

Both projectors onto the free Lie algebra have one production construction
and independent oracles that the test suite plays against it:

* ``dynkin`` -- right-nested bracketing with a 1/n prefactor, applied to a
  whole homogeneous component at once through its letter parts,
  r(sum_a a p_a) = sum_a [a, r(p_a)], in integer arithmetic (production),
  and ``dynkin_via_descents`` -- the descent-class permutation sum (oracle);
* ``eulerian_power_word`` -- e on a power word x_1^i_1 ... x_k^i_k through
  the run-length convolution recursion (production: the BCH series and the
  particular solution only ever need e on power words), and two oracles on
  arbitrary words: ``eulerian`` -- the S_n permutation sum with coefficients
  (-1)^d(sigma) / (n * C(n-1, d(sigma))), factorial in the degree -- and
  ``eulerian_via_convolution`` -- log of the identity under convolution,
  evaluated through the co-shuffle.

The permutation sum for the Eulerian idempotent carries an explicit 1/n per
degree; without it the convolution construction is not reproduced (already
visible on xy, where the convolution forces (xy - yx)/2).

The other maps are linear extensions of word-level maps, which are memoised:
words are plain tuples of letter indices, so the caches are alphabet-agnostic.
The production kernels sum in integers and divide by one common denominator
per component or word.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .algebra import NCPoly, Word, apply_word_map, concat, integer_form, letter_part
from .permutations import descent_class_images, sn_with_descents

_ZERO = Fraction(0)


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


@lru_cache(maxsize=None)
def _dynkin_word_descents(word: Word) -> dict[Word, Fraction]:
    """gamma on a word via descent classes:

    gamma_n(w) = ((-1)^(n-1)/n) * sum_{k=0}^{n-1} (-1)^k
                 sum_{sigma, Des(sigma)={1..k}} (reversed w)^sigma.
    """
    n = len(word)
    if n == 0:
        return {}
    rev = word[::-1]
    counts: dict[Word, int] = {}
    for k in range(n):
        sign = (-1) ** k
        for images in descent_class_images(n, k):
            permuted = tuple(rev[s - 1] for s in images)
            counts[permuted] = counts.get(permuted, 0) + sign
    outer = Fraction((-1) ** (n - 1), n)
    return {w: outer * c for w, c in counts.items() if c}


def dynkin_via_descents(p: NCPoly) -> NCPoly:
    """Second, independent construction of gamma from the descent-class sum."""
    return apply_word_map(p, _dynkin_word_descents)


# -- Eulerian idempotent ------------------------------------------------------


@lru_cache(maxsize=None)
def _eulerian_word(word: Word) -> dict[Word, Fraction]:
    n = len(word)
    if n == 0:
        return {}
    counts: dict[tuple[Word, int], int] = {}
    for images, d in sn_with_descents(n):
        permuted = tuple(word[s - 1] for s in images)
        key = (permuted, d)
        counts[key] = counts.get(key, 0) + 1
    coeff = [Fraction((-1) ** d, n * comb(n - 1, d)) for d in range(n)]
    out: dict[Word, Fraction] = {}
    for (permuted, d), cnt in counts.items():
        out[permuted] = out.get(permuted, _ZERO) + cnt * coeff[d]
    return {w: c for w, c in out.items() if c}


def eulerian(p: NCPoly) -> NCPoly:
    """Oracle for the Eulerian idempotent e = log of the identity under
    convolution, on arbitrary polynomials.

    Evaluated through the full S_n permutation sum with descent-count
    coefficients; linear extension over the terms of p.  Production code
    goes through :func:`eulerian_power_word` instead.
    """
    return apply_word_map(p, _eulerian_word)


@lru_cache(maxsize=None)
def _jstar_word(k: int, word: Word) -> dict[Word, int]:
    """k-fold convolution power of J = Id - (unit o counit), on one word.

    Computed by J*k = J star J*(k-1) through the co-shuffle: sum over
    nonempty subsequences paired with the complementary subsequence.
    """
    n = len(word)
    if n == 0:
        return {}
    if k == 1:
        return {word: 1}
    out: dict[Word, int] = {}
    for mask in range(1, 1 << n):
        left = tuple(word[i] for i in range(n) if mask >> i & 1)
        rest = tuple(word[i] for i in range(n) if not mask >> i & 1)
        for w, c in _jstar_word(k - 1, rest).items():
            key = left + w
            out[key] = out.get(key, 0) + c
    return {w: c for w, c in out.items() if c}


@lru_cache(maxsize=None)
def _eulerian_word_convolution(word: Word) -> dict[Word, Fraction]:
    n = len(word)
    out: dict[Word, Fraction] = {}
    for k in range(1, n + 1):
        sign = Fraction((-1) ** (k - 1), k)
        for w, c in _jstar_word(k, word).items():
            out[w] = out.get(w, _ZERO) + sign * c
    return {w: c for w, c in out.items() if c}


def eulerian_via_convolution(p: NCPoly) -> NCPoly:
    """Independent oracle for e: the finite alternating sum of J*k / k.

    On a degree-n word the convolution powers vanish beyond k = n, so the
    logarithm series is exactly J - J*2/2 + ... +- J*n/n there.
    """
    return apply_word_map(p, _eulerian_word_convolution)


# -- fast Eulerian on power words ----------------------------------------------

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


def eulerian_power_word(p: NCPoly | None = None, *, alphabet=None, segments: Segments | None = None) -> NCPoly:
    """e applied to a power word letter0^c0 letter1^c1 ... given as runs.

    The production route for e: same values as :func:`eulerian`, but it
    scales to the degrees the series constructions need, where enumerating
    S_n would be prohibitive.
    """
    if segments is None or alphabet is None:
        raise ValueError("eulerian_power_word needs alphabet= and segments=")
    segments = _normalize_segments(tuple(segments))
    if any(not 0 <= letter < alphabet.size for letter, _ in segments):
        raise ValueError(f"segments {segments} have letters outside the alphabet")
    return NCPoly._raw(alphabet, _eulerian_segments(segments))


# -- kernel of the Dynkin idempotent -------------------------------------------


def kernel_generator(p: NCPoly) -> NCPoly:
    """p - gamma(p); the complement projection onto the kernel of gamma."""
    return p - dynkin(p)


def kernel_generator_explicit(alphabet, word: Word) -> NCPoly:
    """The descent-class expansion of n * (w - gamma(w)) for a degree-n word:

    (n-1) w + sum_{k=0}^{n-2} (-1)^(n+k) sum_{sigma, Des(sigma)={1..k}}
    (reversed w)^sigma.

    The k = 0 class (the identity permutation, contributing (-1)^n times the
    reversed word) is required: dropping it leaves an element that gamma
    does not kill, already for xyx in degree 3.
    """
    word = tuple(word)
    n = len(word)
    if n < 2:
        raise ValueError("explicit kernel elements need degree >= 2")
    rev = word[::-1]
    counts: dict[Word, int] = {word: n - 1}
    for k in range(n - 1):
        sign = (-1) ** (n + k)
        for images in descent_class_images(n, k):
            permuted = tuple(rev[s - 1] for s in images)
            counts[permuted] = counts.get(permuted, 0) + sign
    return NCPoly(alphabet, {w: Fraction(c) for w, c in counts.items()})


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


def dynkin_kernel_basis(alphabet, n: int) -> list[NCPoly]:
    """A basis of the kernel of gamma on words of degree n.

    The elements w - gamma(w) span the kernel; a triangular sweep over the
    word basis keeps an independent subset.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    from itertools import product

    from .linalg import independent_subset

    words = [tuple(w) for w in product(range(alphabet.size), repeat=n)]
    vectors = []
    polys = []
    for w in words:
        gen = kernel_generator(NCPoly.from_word(alphabet, w))
        vectors.append([gen.coefficient(u) for u in words])
        polys.append(gen)
    keep = independent_subset(vectors)
    return [polys[i] for i in keep]
