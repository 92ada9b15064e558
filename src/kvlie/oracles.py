"""Oracles: second, independent constructions that the tests play against production.

Every object the engine builds has one production construction in
``algebra``, ``idempotents``, ``series`` and ``kv``.  The constructions kept
here share no kernel with it (the split chain reads r through ``dynkin``,
itself played against the descent classes), so agreement term by term is
evidence for both:

* ``dynkin_via_descents`` -- gamma as the descent-class permutation sum,
  against :func:`kvlie.idempotents.dynkin`;
* ``eulerian`` -- the Eulerian idempotent e as the S_n permutation sum with
  coefficients (-1)^d(sigma) / (n * C(n-1, d(sigma))), factorial in the
  degree, and ``eulerian_via_convolution`` -- log of the identity under
  convolution, evaluated through the co-shuffle; both act on arbitrary
  words, against e(x^i y^j) = i! j! times the bidegree-(i, j) part of
  :func:`kvlie.idempotents.bch_component`;
* ``kernel_generator_explicit`` and ``dynkin_kernel_basis`` -- the kernel of
  gamma from descent classes and from a linear sweep over the word basis;
* ``bch_permutation_oracle`` -- the BCH series with e on each power word
  through the S_n sum, a plain series certified Lie like the exp/log oracle
  :func:`kvlie.kv.bch_oracle` (which stays in ``kv`` because the CLI prints
  it), against :func:`kvlie.kv.bch_eulerian`, the Goldberg vectors;
* ``solve_split_chain`` -- the particular solution by inverting ad(x) on
  words degree by degree (``ad_inverse``, a triangular recursion checked
  exactly and certified Lie), against :func:`kvlie.kv.f0`, with its
  right-hand side Phi^- the y-leading shares of the exp/log BCH series
  under :func:`kvlie.idempotents.dynkin` on word dicts, not the Goldberg
  levels production reads (the tests hold ``dynkin`` to
  ``dynkin_via_descents`` on those shares);
* ``operator_nullity``, ``leading_pair_nullity`` and
  ``kernel_parameterized_leading_dim`` -- dimension counts of the solution
  space;
* ``coshuffle`` on :class:`TensorSquare` -- the coproduct that makes every
  letter primitive;
* ``to_lie_coordinates`` from :mod:`kvlie.lyndon` -- Lie membership by Lyndon
  elimination, against the test r(p) = n p of
  :func:`kvlie.idempotents._lie_level`, which certifies each Goldberg
  component and, through :func:`kvlie.kv._certify_lie`, both BCH oracles.

The permutation sum for the Eulerian idempotent carries an explicit 1/n per
degree; without it the convolution construction is not reproduced (already
visible on xy, where the convolution forces (xy - yx)/2).

No production module imports this module, nor ``permutations``, ``linalg``
or ``lyndon``, which only the oracles and the tests use.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial

from .algebra import XY, Alphabet, NCPoly, Word, bracket, letter_part, weighted_sum
from .idempotents import dynkin, kernel_generator
from .kv import _certify_lie, bch_oracle
from .kv import op_exp_ad_minus_one
from .linalg import independent_subset, nullspace_dimension, rank
from .lyndon import is_lie_element, lyndon_words, standard_bracketing, to_lie_coordinates
from .permutations import descent_class_images, sn_with_descents
from .series import GradedSeries

_ZERO = Fraction(0)
X = NCPoly.letter(XY, "x")
Y = NCPoly.letter(XY, "y")
MINUS_X = -X
SWAP = {"x": "y", "y": "x"}


# -- word maps and the co-shuffle ----------------------------------------------


def apply_word_map(p: NCPoly, word_map) -> NCPoly:
    """Linear extension of a map word -> dict(word -> Fraction)."""
    terms: dict[Word, Fraction] = {}
    for word, coeff in p.terms.items():
        for w2, c2 in word_map(word).items():
            terms[w2] = terms.get(w2, _ZERO) + coeff * c2
    return NCPoly(p.alphabet, terms)


class TensorSquare:
    """An element of T(V) (x) T(V): finitely supported map (word, word) -> rational."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: dict[tuple[Word, Word], Fraction]):
        self.alphabet = alphabet
        self.terms = {k: v for k, v in terms.items() if v}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorSquare):
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    def __mul__(self, other: "TensorSquare") -> "TensorSquare":
        """Componentwise product (a (x) b)(c (x) d) = ac (x) bd."""
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        terms: dict[tuple[Word, Word], Fraction] = {}
        for (l1, r1), c1 in self.terms.items():
            for (l2, r2), c2 in other.terms.items():
                key = (l1 + l2, r1 + r2)
                terms[key] = terms.get(key, _ZERO) + c1 * c2
        return TensorSquare(self.alphabet, terms)

    def __repr__(self) -> str:
        bits = []
        for (l, r), c in sorted(self.terms.items()):
            lt = self.alphabet.word_text(l) or "1"
            rt = self.alphabet.word_text(r) or "1"
            bits.append(f"{c}*{lt}(x){rt}")
        return "TensorSquare(" + " + ".join(bits) + ")"


def word_coshuffle(word: Word) -> dict[tuple[Word, Word], int]:
    """Co-shuffle of a single word: sum over subsequence/complement splits."""
    n = len(word)
    out: dict[tuple[Word, Word], int] = {}
    for mask in range(1 << n):
        left = tuple(word[i] for i in range(n) if mask >> i & 1)
        right = tuple(word[i] for i in range(n) if not mask >> i & 1)
        key = (left, right)
        out[key] = out.get(key, 0) + 1
    return out


def coshuffle(p: NCPoly) -> TensorSquare:
    """The coproduct determined by making every letter primitive.

    Delta(v) = 1 (x) v + v (x) 1 on letters, extended as an algebra morphism;
    on a word this is the sum over all subsequence/complement splittings.
    """
    terms: dict[tuple[Word, Word], Fraction] = {}
    for word, coeff in p.terms.items():
        for key, mult in word_coshuffle(word).items():
            terms[key] = terms.get(key, _ZERO) + coeff * mult
    return TensorSquare(p.alphabet, terms)


# -- Dynkin idempotent by descent classes ---------------------------------------


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


# -- Eulerian idempotent on arbitrary words ------------------------------------


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
    """The Eulerian idempotent e = log of the identity under convolution, on
    arbitrary polynomials, through the full S_n permutation sum with
    descent-count coefficients; linear extension over the terms of p.
    """
    return apply_word_map(p, _eulerian_word)


@lru_cache(maxsize=None)
def _jstar_word(k: int, word: Word) -> dict[Word, int]:
    """k-fold convolution power of J = Id - (unit o counit), on one word.

    J*k = J star J*(k-1) through the co-shuffle: each split of the word into
    a nonempty subsequence and its complement contributes the subsequence
    followed by J*(k-1) of the complement.
    """
    if not word:
        return {}
    if k == 1:
        return {word: 1}
    out: dict[Word, int] = {}
    for (left, rest), mult in word_coshuffle(word).items():
        if left:
            for w, c in _jstar_word(k - 1, rest).items():
                out[left + w] = out.get(left + w, 0) + mult * c
    return {w: c for w, c in out.items() if c}


@lru_cache(maxsize=None)
def _eulerian_word_convolution(word: Word) -> dict[Word, Fraction]:
    out: dict[Word, Fraction] = {}
    for k in range(1, len(word) + 1):
        sign = Fraction((-1) ** (k - 1), k)
        for w, c in _jstar_word(k, word).items():
            out[w] = out.get(w, _ZERO) + sign * c
    return {w: c for w, c in out.items() if c}


def eulerian_via_convolution(p: NCPoly) -> NCPoly:
    """e as the finite alternating sum of J*k / k.

    On a degree-n word the convolution powers vanish beyond k = n, so the
    logarithm series is exactly J - J*2/2 + ... +- J*n/n there.
    """
    return apply_word_map(p, _eulerian_word_convolution)


# -- kernel of the Dynkin idempotent --------------------------------------------


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
    return NCPoly(alphabet, counts)


def dynkin_kernel_basis(alphabet, n: int) -> list[NCPoly]:
    """A basis of the kernel of gamma on words of degree n.

    The elements w - gamma(w) span the kernel; a triangular sweep over the
    word basis keeps an independent subset.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    words = list(product(range(alphabet.size), repeat=n))
    vectors = []
    polys = []
    for w in words:
        gen = kernel_generator(NCPoly.from_word(alphabet, w))
        vectors.append([gen.coefficient(u) for u in words])
        polys.append(gen)
    return [polys[i] for i in independent_subset(vectors)]


# -- BCH through the S_n permutation sum ----------------------------------------


def bch_permutation_oracle(order: int) -> GradedSeries:
    """BCH series in two variables: component m = sum_{i+j=m} e(x^i y^j) / (i! j!),
    with e on each power word evaluated through the full S_n permutation sum.
    Factorial in the degree.

    Pure powers beyond degree 1 are asserted to vanish under e, and
    :func:`kvlie.kv._certify_lie` certifies every component to be a Lie element.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    parts = [NCPoly.zero(XY)]
    for m in range(1, order + 1):
        items = []
        for i in range(m + 1):
            value = eulerian(NCPoly.from_word(XY, (0,) * i + (1,) * (m - i)))
            if m >= 2 and i in (0, m) and value:
                raise AssertionError(f"e on the pure power word of degree {m} did not vanish")
            weight = Fraction(1, factorial(i) * factorial(m - i))
            items.append((weight, value))
        parts.append(weighted_sum(XY, items))
    return _certify_lie(GradedSeries(XY, order, parts))


# -- triangular oracle for the split equation -----------------------------------


def ad_inverse(letter: str, R: NCPoly, d: int) -> NCPoly:
    """The u of degree d with [z, u] = R and no z^d term, z = ``letter``.

    At the word zs, [z, u] = R reads u_s = R_(zs) + [s = s'z] u_(zs'), a
    recursion on the trailing z's of s: each word zs of R adds its coefficient
    at s and again after each move of a leading z of s to its end.  Raises
    ``ValueError`` unless [z, u] = R exactly and u is a Lie element.
    """
    z = R.alphabet.index(letter)
    power = (z,) * d  # ker ad(z) in degree d
    coeffs: dict[Word, int] = defaultdict(int)
    for w, c in R.numerators.items():
        s = w[1:]
        if len(w) == d + 1 and w[0] == z and s != power:
            coeffs[s] += c
            while s[0] == z:
                s = s[1:] + (z,)
                coeffs[s] += c
    u = NCPoly._raw(R.alphabet, {s: c for s, c in coeffs.items() if c}, R.scale)
    if bracket(NCPoly.letter(R.alphabet, letter), u) != R or not is_lie_element(u):
        raise ValueError(f"{R} is not ad({letter}) of a degree-{d} Lie element")
    return u


def solve_split_chain(max_degree: int) -> GradedSeries:
    """Solve E(-x) F = Phi^-(y, x) degree by degree by inverting ad(x) on words.

    Independent oracle for the particular solution: at degree d + 1 the
    unknown F_d enters only as -[x, F_d], so F_d is :func:`ad_inverse` of the
    rest, with a zero x coordinate at d = 1 (the kernel of E(-x)).  It reads
    no production operator, Goldberg vector, Bernoulli weight or
    letter-nested series.
    """
    phi = bch_oracle(max_degree + 1)
    # Phi^-(x, y): the y-leading shares gamma(y (Phi_n)_y) of exp/log BCH
    minus = [dynkin(Y * letter_part(p, "y")) for p in phi.parts[2:]]
    target = GradedSeries(XY, phi.order, [NCPoly.zero(XY)] * 2 + minus).substitute(SWAP)

    parts = [NCPoly.zero(XY)]
    for d in range(1, max_degree + 1):
        m = d + 1  # output degree of the constraint fixing component d
        rhs = target.component(m)
        for k in range(2, m):
            lower = parts[m - k]
            if lower:
                term = lower
                for _ in range(k):
                    term = bracket(MINUS_X, term)
                rhs = rhs - term.scaled(Fraction(1, factorial(k)))
        parts.append(ad_inverse("x", -rhs, d))
    return GradedSeries(XY, max_degree, parts)


# -- degree-wise dimension analyses ----------------------------------------------


def operator_nullity(letter: str, degree: int, blocks: int = 2) -> int:
    """Nullity of E(letter) restricted to the degree-``degree`` Lie piece.

    The map is assembled in Lyndon coordinates against the word basis of the
    next ``blocks`` degrees; since the graded components of E must vanish
    independently, two blocks already determine the kernel exactly.
    """
    base = NCPoly.letter(XY, letter)
    basis_words = lyndon_words(XY, degree)
    columns = []
    for w in basis_words:
        series = GradedSeries.from_poly(standard_bracketing(XY, w), degree + blocks)
        image = op_exp_ad_minus_one(base, series)
        vec: list[Fraction] = []
        for m in range(degree + 1, degree + blocks + 1):
            comp = image.component(m)
            vec.extend(comp.coefficient(t) for t in product(range(2), repeat=m))
        columns.append(vec)
    matrix = [[col[r] for col in columns] for r in range(len(columns[0]))]
    return nullspace_dimension(matrix)


def leading_pair_nullity(degree: int) -> int:
    """Dimension of {(P, Q) in Lie_n^2 : [x, P] + [y, Q] = 0} at n = degree."""
    basis_words = lyndon_words(XY, degree)
    columns = [bracket(X, standard_bracketing(XY, w)) for w in basis_words]
    columns += [bracket(Y, standard_bracketing(XY, w)) for w in basis_words]
    matrix = [
        [col.coefficient(t) for col in columns]
        for t in product(range(2), repeat=degree + 1)
    ]
    return nullspace_dimension(matrix)


def kernel_parameterized_leading_dim(degree: int) -> int:
    """Rank of the leading pairs (gamma(p_x), gamma(p_y)) over a basis of the
    kernel of the Dynkin idempotent in degree ``degree`` + 1, plus the
    (lambda1 x, lambda2 y) line at degree 1."""
    basis_words = lyndon_words(XY, degree)
    vectors = []

    def coords(poly: NCPoly) -> list[Fraction]:
        lc = to_lie_coordinates(poly)
        return [lc.coords.get(w, _ZERO) for w in basis_words]

    for p in dynkin_kernel_basis(XY, degree + 1):
        P = dynkin(letter_part(p, "x"))
        Q = dynkin(letter_part(p, "y"))
        vectors.append(coords(P) + coords(Q))
    if degree == 1:
        zero = [_ZERO] * len(basis_words)
        vectors.append(coords(X) + zero)
        vectors.append(zero + coords(Y))
    return rank(vectors)
