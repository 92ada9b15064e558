"""Graded formal series: degree-indexed families of homogeneous polynomials.

A :class:`GradedSeries` holds one homogeneous polynomial per degree 0..order
and never reads above its truncation order.  exp and log are the truncated
formal exponential/logarithm used as the direct-expansion oracle for the
Baker-Campbell-Hausdorff series.

Every kernel works on one dense form: per degree d, None for zero or
(vector, scale), the integer vector over all m^d words of the m letters
present (:func:`kvlie.algebra.dense`, renumbered 0..m-1, so a high letter of
a large alphabet costs no more than a low one) over a nonzero int scale.
Each input component is made dense once and each output degree read back to
words once.  ``_product`` carries series products, ``_power_sum`` (Horner's
rule on ``_product``) exp and log, and ``_ad_sum``, the one kernel of weighted
ad powers sum_j w_j ad(b)^j s, the operators ad, E and Ber, the particular
solutions and every verifier.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial, lcm
from operator import add, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import Alphabet, Frozen, NCPoly, Word, dense, from_dense, substitute, to_text
from .algebra import weighted_sum


class GradedSeries(Frozen):
    """A series truncated at ``order``: components[d] is homogeneous of degree d."""

    __slots__ = ("alphabet", "order", "parts")

    def __init__(self, alphabet: Alphabet, order: int, parts: Sequence[NCPoly] | None = None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        zero = NCPoly.zero(alphabet)
        built = [zero] * (order + 1)
        if parts is not None:
            if len(parts) > order + 1:
                raise ValueError("more components than the truncation order allows")
            for d, p in enumerate(parts):
                if p.alphabet != alphabet:
                    raise ValueError("alphabet mismatch in series component")
                if p and (not p.is_homogeneous() or p.max_degree() != d):
                    raise ValueError(f"component {d} is not homogeneous of degree {d}")
                built[d] = p
        self._fill(alphabet, order, built)

    # -- constructors --------------------------------------------------------

    @classmethod
    def _raw(cls, alphabet: Alphabet, order: int, parts: Sequence[NCPoly]) -> "GradedSeries":
        """Trusted constructor for components built degree by degree: parts[d]
        must already be homogeneous of degree d, for d = 0..order."""
        return cls.__new__(cls)._fill(alphabet, order, parts)

    def _fill(self, alphabet: Alphabet, order: int, parts: Sequence[NCPoly]) -> "GradedSeries":
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "parts", tuple(parts))
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
        return self.parts[degree]

    def __reduce__(self):
        return GradedSeries, (self.alphabet, self.order, self.parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.order == other.order
            and self.parts == other.parts
        )

    def __bool__(self) -> bool:
        return any(self.parts)

    def __repr__(self) -> str:
        return f"GradedSeries(order={self.order}, {to_text(self.to_poly())!r})"

    def _check_compatible(self, other: "GradedSeries") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch between series")
        if self.order != other.order:
            raise ValueError("truncation order mismatch between series")

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        self._check_compatible(other)
        return GradedSeries._raw(
            self.alphabet, self.order, [a + b for a, b in zip(self.parts, other.parts)]
        )

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        self._check_compatible(other)
        return GradedSeries._raw(
            self.alphabet, self.order, [a - b for a, b in zip(self.parts, other.parts)]
        )

    def __neg__(self) -> "GradedSeries":
        return GradedSeries._raw(self.alphabet, self.order, [-p for p in self.parts])

    def scaled(self, scalar) -> "GradedSeries":
        return GradedSeries._raw(self.alphabet, self.order, [p.scaled(scalar) for p in self.parts])

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            return self.scaled(other)
        self._check_compatible(other)
        letters = _letters(self.parts + other.parts)
        left, right = _densify(self.parts, letters), _entries(_densify(other.parts, letters))
        parts = [_product(left, right, n, len(letters)) for n in range(self.order + 1)]
        return _series(self.alphabet, letters, parts)

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    # -- operations --------------------------------------------------------------

    def truncate(self, order: int) -> "GradedSeries":
        """Discard all components above ``order`` (or zero-pad up to it)."""
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        parts = self.parts[: order + 1] + (NCPoly.zero(self.alphabet),) * (order - self.order)
        return GradedSeries._raw(self.alphabet, order, parts)

    def substitute(self, images: Mapping[str, str]) -> "GradedSeries":
        return GradedSeries._raw(
            self.alphabet, self.order, [substitute(p, images) for p in self.parts]
        )

    def to_poly(self) -> NCPoly:
        return weighted_sum(self.alphabet, [(1, p) for p in self.parts])

    def is_zero(self) -> bool:
        return not any(self.parts)

    def iter_terms(self) -> Iterator[tuple[int, Word, Fraction]]:
        for d, p in enumerate(self.parts):
            for word, coeff in p.sorted_terms():
                yield d, word, coeff


# -- the dense kernel ------------------------------------------------------------


def _letters(polys: Iterable[NCPoly]) -> tuple[int, ...]:
    """The letters present in ``polys``, in alphabet order."""
    return tuple(sorted({a for p in polys for w in p.numerators for a in w}))


def _densify(parts: Sequence[NCPoly], letters: Sequence[int]) -> list:
    """The dense form of the components ``parts`` over ``letters``."""
    return [(dense(p.numerators, d, letters), p.scale) if p else None for d, p in enumerate(parts)]


def _series(alphabet: Alphabet, letters: Sequence[int], parts: Sequence) -> GradedSeries:
    """The series of dense parts with positive scales, read back once per degree."""
    polys = [NCPoly._raw(alphabet, from_dense(vector, d, letters), scale)
             for d, (vector, scale) in enumerate(part or ((), 1) for part in parts)]
    return GradedSeries._raw(alphabet, len(parts) - 1, polys)


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


def _power_sum(s: GradedSeries, weights: Sequence) -> GradedSeries:
    """sum_j weights[j] u^j through the order of s, for u = s minus its
    constant component, by Horner's rule: P = w_j + P u from the top weight
    down.  u has no constant component, so P u leaves degree 0 to w_j."""
    letters = _letters(s.parts[1:])
    right = _entries([None] + _densify(s.parts, letters)[1:])
    total: list = [None] * (s.order + 1)
    for w in map(Fraction, reversed(weights[: s.order + 1])):
        total = [([w.numerator], w.denominator) if w else None] + [
            _product(total, right, n, len(letters)) for n in range(1, s.order + 1)]
    return _series(s.alphabet, letters, total)


def _ad_sum(alphabet: Alphabet, k: int | None, order: int, terms: Sequence) -> GradedSeries:
    """sum over terms (base, weights, b) of sum_j weights[j] ad(base)^j b
    through degree ``order``, for bases homogeneous of degree 1 (zero
    included) and each b a series over the alphabet or, when k is given, dense
    parts over the letters 0..k-1; with k None the index is over the letters
    present.  On the dense index over m letters, left concatenation by a
    letter a is the block at offset a m^d and right concatenation the stride-m
    slice a::m, so ad(z) is two slice operations.  Each output degree is one
    integer vector over the lcm of the denominators that can reach it, found
    before any ad power.
    """
    letters = range(k) if k else _letters(chain.from_iterable((z, *b.parts) for z, _, b in terms))
    m, checked, common = len(letters), [], [1] * (order + 1)
    for base, weights, parts in terms:
        if base and (not base.is_homogeneous() or base.max_degree() != 1):
            raise ValueError("operator base must be homogeneous of degree 1")
        if isinstance(parts, GradedSeries):
            base._check_same_alphabet(parts.parts[0])
            parts = _densify(parts.parts[: order + 1], letters)
        parts = [(d, part) for d, part in enumerate(parts[: order + 1]) if part]
        checked.append((base, weights, parts))
        for d, (_, scale) in parts:
            for j, weight in enumerate(weights[: order + 1 - d]):
                common[d + j] = lcm(common[d + j], Fraction(weight, scale * base.scale**j).denominator)
    totals: list = [None] * (order + 1)
    for base, weights, parts in checked:
        coefficients = [(letters.index(w[0]), c) for w, c in base.numerators.items()]
        for d, (vector, scale) in parts:
            for j, weight in enumerate(weights[: order + 1 - d]):
                if j:
                    size = len(vector)
                    out = [0] * (size * m)
                    for a, b in coefficients:
                        scaled = [b * c for c in vector]
                        left = slice(a * size, (a + 1) * size)
                        out[left] = map(add, out[left], scaled)
                        out[a::m] = map(sub, out[a::m], scaled)
                    vector, scale = out, scale * base.scale
                    if not any(vector):
                        break
                if weight:
                    n = d + j
                    f = int(Fraction(weight * common[n], scale))
                    totals[n] = [t + f * c for t, c in zip(totals[n] or [0] * len(vector), vector)]
    return _series(alphabet, letters, [(t, c) if t else None for t, c in zip(totals, common)])


def series_exp(s: GradedSeries) -> GradedSeries:
    """Truncated exponential sum_k s^k / k! on the dense kernel; requires a
    vanishing constant component."""
    if s.parts[0]:
        raise ValueError("series_exp requires component 0 to vanish")
    return _power_sum(s, [Fraction(1, factorial(k)) for k in range(s.order + 1)])


def series_log(s: GradedSeries) -> GradedSeries:
    """Truncated logarithm sum_k (-1)^(k-1) (s - 1)^k / k on the dense
    kernel; requires constant component equal to 1."""
    if s.parts[0] != NCPoly.unit(s.alphabet):
        raise ValueError("series_log requires component 0 equal to 1")
    return _power_sum(s, [0] + [Fraction((-1) ** (k - 1), k) for k in range(1, s.order + 1)])
