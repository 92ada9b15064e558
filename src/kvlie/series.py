"""Graded formal series: degree-indexed families of homogeneous polynomials.

A :class:`GradedSeries` truncated at ``order`` is stored in the dense form
every kernel computes in: ``letters``, the sorted letters of its index, and
per degree d, ``dense[d]``: None for zero, or an immutable int tuple over all
m^d words of those m letters (:func:`kvlie.algebra.dense`, renumbered 0..m-1)
and a positive scale, reduced by their gcd.  The public constructor densifies
its polynomial components once; ``parts`` and ``component`` build the
word-dict :class:`NCPoly` on access; printing walks the stored index, which is
in print order, with each degree's word texts joined once from the letter
texts (``reduced_terms``).  Series over different letters meet on the union of
their letters, each widened onto it in one place (``_over``); letter
substitution runs on the word-dict components.  ``_product`` carries
products, ``_power_sum`` (Horner's rule on ``_product``, each step only
through the degrees the sum reads) exp and log, and ``_ad_sum``, the one
kernel of weighted ad powers sum_j w_j ad(b)^j s, sums, scalings, the
operators ad, E and Ber, the particular solutions and every verifier; both
take weights w_0, w_1, ... as (integer numerators, denominator), as parts are.
"""

from __future__ import annotations

from itertools import chain, compress, product
from math import comb, factorial, gcd, lcm
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import (Alphabet, Frozen, NCPoly, Rational, Word, _rational, dense, from_dense,
                      substitute, to_text)


class GradedSeries(Frozen):
    """A series truncated at ``order``: component d is homogeneous of degree d,
    stored as ``dense[d]`` over the words of ``letters``."""

    __slots__ = ("alphabet", "order", "letters", "dense")

    def __init__(self, alphabet: Alphabet, order: int, parts: Sequence[NCPoly] | None = None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        parts = list(parts or ())
        if len(parts) > order + 1:
            raise ValueError("more components than the truncation order allows")
        for d, p in enumerate(parts):
            if p.alphabet != alphabet:
                raise ValueError("alphabet mismatch in series component")
            if p and (not p.is_homogeneous() or p.max_degree() != d):
                raise ValueError(f"component {d} is not homogeneous of degree {d}")
        letters = _letters(*(chain.from_iterable(p.numerators) for p in parts))
        stored = [(dense(p.numerators, d, letters), p.scale) if p else None for d, p in enumerate(parts)]
        self._fill(alphabet, letters, stored + [None] * (order + 1 - len(parts)))

    # -- constructors --------------------------------------------------------

    @classmethod
    def _raw(cls, alphabet: Alphabet, letters: Iterable[int], parts: Sequence) -> "GradedSeries":
        """Trusted constructor through order len(parts) - 1: parts[d] is None or
        (vector, scale), the vector over the m^d words of the sorted ``letters``
        and scale > 0; each is reduced here by its gcd."""
        return cls.__new__(cls)._fill(alphabet, letters, parts)

    def _fill(self, alphabet: Alphabet, letters: Iterable[int], parts: Sequence) -> "GradedSeries":
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "order", len(parts) - 1)
        object.__setattr__(self, "letters", tuple(letters))
        object.__setattr__(self, "dense", tuple(map(_reduced, parts)))
        return self

    @classmethod
    def zero(cls, alphabet: Alphabet, order: int) -> "GradedSeries":
        return cls(alphabet, order)

    @classmethod
    def one(cls, alphabet: Alphabet, order: int) -> "GradedSeries":
        return cls.from_poly(NCPoly.unit(alphabet), order)

    @classmethod
    def from_poly(cls, p: NCPoly, order: int) -> "GradedSeries":
        """Split a polynomial into homogeneous components, discarding degrees > order."""
        parts = [p.homogeneous_component(d) for d in range(order + 1)]
        return cls(p.alphabet, order, parts)

    @classmethod
    def generator(cls, alphabet: Alphabet, symbol: str, order: int) -> "GradedSeries":
        return cls.from_poly(NCPoly.letter(alphabet, symbol), order)

    # -- protocol --------------------------------------------------------------

    def component(self, degree: int) -> NCPoly:
        if degree > self.order:
            raise ValueError(f"degree {degree} above truncation order {self.order}")
        part = self.dense[degree]
        if not part:
            return NCPoly.zero(self.alphabet)
        return NCPoly._raw(self.alphabet, from_dense(part[0], degree, self.letters), part[1])

    @property
    def parts(self) -> tuple[NCPoly, ...]:
        return tuple(map(self.component, range(self.order + 1)))

    def __reduce__(self):
        return GradedSeries, (self.alphabet, self.order, self.parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedSeries):
            return NotImplemented
        if (self.alphabet, self.order) != (other.alphabet, other.order):
            return False
        letters = _letters(self.letters, other.letters)
        return _over(self, letters).dense == _over(other, letters).dense

    def __bool__(self) -> bool:
        return any(self.dense)

    def __repr__(self) -> str:
        return f"GradedSeries(order={self.order}, {to_text(self)!r})"

    def _check_compatible(self, other: "GradedSeries") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch between series")
        if self.order != other.order:
            raise ValueError("truncation order mismatch between series")

    def _sum(self, *items) -> "GradedSeries":
        """sum of w s over the (w, s) items, w an int or a Fraction: one zero-base ``_ad_sum``."""
        zero = NCPoly.zero(self.alphabet)
        return _ad_sum(self.order, [(zero, ((w.numerator,), w.denominator), s) for w, s in items])

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._check_compatible(other)
        return self._sum((1, self), (1, other))

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._check_compatible(other)
        return self._sum((1, self), (-1, other))

    def __neg__(self) -> "GradedSeries":
        return self._sum((-1, self))

    def scaled(self, scalar: Rational) -> "GradedSeries":
        return self._sum((_rational(scalar), self))

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            return self.scaled(other)
        self._check_compatible(other)
        letters = _letters(self.letters, other.letters)
        left, right = _over(self, letters).dense, _entries(_over(other, letters).dense)
        parts = [_product(left, right, n, len(letters)) for n in range(self.order + 1)]
        return GradedSeries._raw(self.alphabet, letters, parts)

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    # -- operations --------------------------------------------------------------

    def truncate(self, order: int) -> "GradedSeries":
        """Discard all components above ``order`` (or zero-pad up to it)."""
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        parts = self.dense[: order + 1] + (None,) * (order - self.order)
        return GradedSeries._raw(self.alphabet, self.letters, parts)

    def substitute(self, images: Mapping[str, str]) -> "GradedSeries":
        """:func:`kvlie.algebra.substitute` on every component."""
        return GradedSeries(self.alphabet, self.order, [substitute(p, images) for p in self.parts])

    def is_zero(self) -> bool:
        return not any(self.dense)

    def reduced_terms(self) -> Iterator[tuple[str, int, int]]:
        """(word text, numerator, denominator) of each term in lowest terms, in
        the index order, which is print order: by degree, then lexicographically.
        The word texts of a degree are joined once from the letter texts, in
        index order, with no tuple words."""
        texts = [self.alphabet.letters[a] for a in self.letters]
        for d, part in enumerate(self.dense):
            if part:
                vector, scale = part
                for text, c in compress(zip(map("".join, product(texts, repeat=d)), vector), vector):
                    g = gcd(c, scale)
                    yield text, c // g, scale // g

    def iter_terms(self) -> Iterator[tuple[int, Word, Rational]]:
        """(degree, word, Fraction coefficient) of each term, in print order."""
        from fractions import Fraction
        word = self.alphabet.word
        return ((len(text), word(text), Fraction(num, den)) for text, num, den in self.reduced_terms())


# -- the dense kernel ------------------------------------------------------------


def _reduced(part):
    """A part as stored: None for zero, else its int tuple and scale over their gcd."""
    if not part or not any(part[0]):
        return None
    g = gcd(part[1], *part[0])
    return tuple(c // g for c in part[0]) if g > 1 else tuple(part[0]), part[1] // g


def _letters(*groups: Iterable[int]) -> tuple[int, ...]:
    """The sorted union of the letter groups: the index of a series over them."""
    return tuple(sorted(set().union(*groups)))


def _over(s: GradedSeries, letters: tuple[int, ...]) -> GradedSeries:
    """s on the index over ``letters``, a sorted superset of its own: each
    word keeps its coefficient, at its index over the wider letters."""
    if s.letters == letters:
        return s
    m = len(letters)
    digits = [letters.index(a) for a in s.letters]
    index, parts = [0], []
    for d, part in enumerate(s.dense):
        if d:
            index = [i * m + j for i in index for j in digits]
        if part:
            acc = [0] * m**d
            for i, c in zip(index, part[0]):
                acc[i] = c
            part = (acc, part[1])
        parts.append(part)
    return GradedSeries._raw(s.alphabet, letters, parts)


def _entries(parts: Sequence) -> list:
    """A right product operand by its nonzero entries: ([(index, value)], scale)."""
    return [([(j, c) for j, c in enumerate(part[0]) if c], part[1]) if part else None for part in parts]


def _product(left: Sequence, right: Sequence, n: int, k: int):
    """Component n of left * right over k letters, one integer list over the
    lcm of the pair scales.  Left word i times right word j of length b sits at
    i k^b + j, so each entry j of ``right`` (:func:`_entries`) adds to j::k^b."""
    pairs = [(left[a], right[n - a]) for a in range(n + 1) if left[a] and right[n - a]]
    common = lcm(*(p * q for (_, p), (_, q) in pairs))
    acc = [0] * k**n
    for (vector, p), (entries, q) in pairs:
        unit, stride = common // (p * q), k**n // len(vector)
        for j, c in entries:
            u = unit * c
            acc[j::stride] = map(add, acc[j::stride], [u * x for x in vector])
    return (acc, common) if pairs else None


def _power_sum(s: GradedSeries, weights: tuple[Sequence[int], int]) -> GradedSeries:
    """sum_j w_j u^j through the order of s, for u = s minus its constant
    component, by Horner's rule: P_j = w_j + P_(j+1) u from the top weight
    down.  u has no constant component, so P_(j+1) u leaves degree 0 to w_j,
    and the sum reads P_j only at degrees <= order - j: step j computes those
    and pads the rest with None, order (order + 1) / 2 products in all."""
    right, order = _entries((None, *s.dense[1:])), s.order
    numerators, den = weights
    total: list = [None] * (order + 1)
    for j, w in reversed(list(enumerate(numerators[: order + 1]))):
        g = gcd(w, den)
        total = [([w // g], den // g) if w else None] + [
            _product(total, right, n, len(s.letters)) for n in range(1, order - j + 1)] + [None] * j
    return GradedSeries._raw(s.alphabet, s.letters, total)


def _ad_sum(order: int, terms: Sequence) -> GradedSeries:
    """sum over terms (base, (numerators, den), s) of sum_j numerators[j] / den
    ad(base)^j s through degree ``order``, for bases homogeneous of degree 1 (zero included)
    and series s over one alphabet, on the index over all their m letters.
    Left and right multiplication by the base b commute, so ad(b)^j =
    sum_i C(j, i) L_b^i (-R_b)^(j-i), and no ad power is built: each entry u
    of b^i and w of b^(j-i) places u s_d w, the m^d entries of s_d, at the
    stride-m^(j-i) slice from u m^(d+j-i) + w, one slice-add per pair (one per
    i for a signed letter, none for j > 0 and a zero base).  Each output
    degree is one integer vector over the lcm of the denominators that can
    reach it, found before any placement."""
    alphabet = terms[0][2].alphabet
    letters = _letters(*(chain(s.letters, *base.numerators) for base, _, s in terms))
    m, checked, common = len(letters), [], [1] * (order + 1)
    for base, (weights, den), s in terms:
        if base and (not base.is_homogeneous() or base.max_degree() != 1):
            raise ValueError("operator base must be homogeneous of degree 1")
        if {base.alphabet, s.alphabet} != {alphabet}:
            raise ValueError("alphabet mismatch between series")
        parts = [(d, part) for d, part in enumerate(_over(s, letters).dense[: order + 1]) if part]
        checked.append((base, weights, den, parts))
        for d, (_, scale) in parts:
            for j, weight in enumerate(weights[: order + 1 - d]):
                q = den * scale * base.scale**j
                common[d + j] = lcm(common[d + j], q // gcd(weight, q))
    totals: list = [None] * (order + 1)
    for base, weights, den, parts in checked:
        powers = [[(0, 1)]]  # the nonzero (index, numerator) entries of base^i over the m letters
        for _ in range(min(order, len(weights) - 1)):
            powers.append([(u * m + letters.index(w[0]), c * b) for u, c in powers[-1]
                           for w, b in base.numerators.items()])
        for d, (vector, scale) in parts:
            size = len(vector)
            for j, weight in enumerate(weights[: order + 1 - d]):
                if weight:
                    f = weight * common[d + j] // (den * scale * base.scale**j)
                    acc = totals[d + j] = totals[d + j] or [0] * (size * m**j)
                    for i in range(j + 1):
                        stride, g = m ** (j - i), f * comb(j, i) * (-1) ** (j - i)
                        for (u, a), (w, b) in product(powers[i], powers[j - i]):
                            at, t = slice(u * stride * size + w, (u + 1) * stride * size, stride), g * a * b
                            acc[at] = map(add, acc[at], [t * c for c in vector])
    return GradedSeries._raw(alphabet, letters, [(t, c) if t else None for t, c in zip(totals, common)])


def series_exp(s: GradedSeries) -> GradedSeries:
    """Truncated exponential sum_k s^k / k! on the dense kernel; requires a
    vanishing constant component."""
    if s.dense[0]:
        raise ValueError("series_exp requires component 0 to vanish")
    top = factorial(s.order)
    return _power_sum(s, ([top // factorial(k) for k in range(s.order + 1)], top))


def series_log(s: GradedSeries) -> GradedSeries:
    """Truncated logarithm sum_k (-1)^(k-1) (s - 1)^k / k on the dense
    kernel; requires constant component equal to 1."""
    if s.dense[0] != ((1,), 1):
        raise ValueError("series_log requires component 0 equal to 1")
    den = lcm(*range(1, s.order + 1))
    return _power_sum(s, ([0] + [(-1) ** (k - 1) * den // k for k in range(1, s.order + 1)], den))
