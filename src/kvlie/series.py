"""Graded formal series: degree-indexed families of homogeneous polynomials.

A :class:`GradedSeries` holds one homogeneous polynomial per degree 0..order
and never reads above its truncation order.  exp and log are the truncated
formal exponential/logarithm used as the direct-expansion oracle for the
Baker-Campbell-Hausdorff series.

Products and weighted power sums run on the integer numerators of the
components, accumulated in ``int`` over one common denominator per output
degree.  ``_power_sum`` (sum_k w_k s^k), on word dicts, carries exp and log;
``_ad_sum``, the one kernel of weighted ad powers, sums any number of terms
sum_j w_j ad(b)^j s on the dense base-k vectors of :func:`kvlie.algebra.dense`:
the operators ad, E and Ber, the particular solutions and every verifier.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import add, sub
from typing import Iterator, Mapping, Sequence

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
        return GradedSeries._raw(self.alphabet, self.order, _product(self.parts, other.parts))

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


# -- the integer kernel ---------------------------------------------------------


def _product(left: Sequence[NCPoly], right: Sequence[NCPoly]) -> list[NCPoly]:
    """Truncated product of two component sequences, one lcm denominator per degree."""
    out = []
    for m in range(len(left)):
        pairs = [(left[a], right[m - a]) for a in range(m + 1) if left[a] and right[m - a]]
        common = lcm(*(a.scale * b.scale for a, b in pairs))
        acc: dict[Word, int] = {}
        for a, b in pairs:
            factor = common // (a.scale * b.scale)
            for wa, ca in a.numerators.items():
                ca *= factor
                for wb, cb in b.numerators.items():
                    word = wa + wb
                    acc[word] = acc.get(word, 0) + ca * cb
        out.append(NCPoly._raw(left[0].alphabet, {w: c for w, c in acc.items() if c}, common))
    return out


def _power_sum(s: GradedSeries, weights: Sequence) -> GradedSeries:
    """sum_k weights[k] * s^k, truncated at the order of s (component 0 of s
    must vanish, so s^k starts in degree k and k <= order suffices)."""
    power = GradedSeries.one(s.alphabet, s.order).parts
    terms: list[list] = [[] for _ in range(s.order + 1)]
    for k, weight in enumerate(weights[: s.order + 1]):
        if k:
            power = _product(power, s.parts)
        if not any(power):
            break
        for d, p in enumerate(power):
            terms[d].append((weight, p))
    return GradedSeries._raw(s.alphabet, s.order, [weighted_sum(s.alphabet, t) for t in terms])


def _ad_sum(alphabet: Alphabet, k: int, order: int, terms: Sequence) -> GradedSeries:
    """sum over terms (base, weights, b) of sum_j weights[j] ad(base)^j b
    through degree ``order``, on the dense index of radix k.  ``base`` is
    homogeneous of degree 1 (a rational combination of letters below k, zero
    included); b is a series over its alphabet, or its dense form: b[d] is
    None for zero, or (vector, factor) for the Fraction factor times the dense
    degree-d vector of integers.

    On the base-k index, ad(z) is two slice operations: left concatenation by
    a letter a is the block at offset a k^d, right concatenation the stride-k
    positions a::k.  Every ad(base)^j b stays in integers, with the base's
    denominator in its factor.  Each output degree is one integer vector over
    the lcm of the denominators that can reach it, found before any ad power.
    """
    checked, common = [], [1] * (order + 1)
    for base, weights, parts in terms:
        if base and (not base.is_homogeneous() or base.max_degree() != 1):
            raise ValueError("operator base must be homogeneous of degree 1")
        if isinstance(parts, GradedSeries):
            base._check_same_alphabet(parts.parts[0])
            parts = [(dense(p.numerators, d, k), Fraction(1, p.scale)) if p else None
                     for d, p in enumerate(parts.parts[: order + 1])]
        parts = [(d, part) for d, part in enumerate(parts[: order + 1]) if part]
        checked.append((base, weights, parts))
        for d, (_, factor) in parts:
            for j, weight in enumerate(weights[: order + 1 - d]):
                common[d + j] = lcm(common[d + j], (weight * factor / base.scale**j).denominator)
    totals: list = [None] * (order + 1)
    for base, weights, parts in checked:
        letters = [(w[0], c) for w, c in base.numerators.items()]
        for d, (vector, factor) in parts:
            for j, weight in enumerate(weights[: order + 1 - d]):
                if j:
                    size = len(vector)
                    out = [0] * (size * k)
                    for a, b in letters:
                        scaled = [b * c for c in vector]
                        left = slice(a * size, (a + 1) * size)
                        out[left] = map(add, out[left], scaled)
                        out[a::k] = map(sub, out[a::k], scaled)
                    vector, factor = out, factor / base.scale
                    if not any(vector):
                        break
                if weight:
                    n = d + j
                    f = int(weight * factor * common[n])
                    totals[n] = [t + f * c for t, c in zip(totals[n] or [0] * len(vector), vector)]
    parts = [NCPoly._raw(alphabet, from_dense(t or (), n, k), c)
             for n, (t, c) in enumerate(zip(totals, common))]
    return GradedSeries._raw(alphabet, order, parts)


def series_exp(s: GradedSeries) -> GradedSeries:
    """Truncated exponential sum_k s^k / k! on the integer kernel; requires a
    vanishing constant component."""
    if s.parts[0]:
        raise ValueError("series_exp requires component 0 to vanish")
    return _power_sum(s, [Fraction(1, factorial(k)) for k in range(s.order + 1)])


def series_log(s: GradedSeries) -> GradedSeries:
    """Truncated logarithm sum_k (-1)^(k-1) (s - 1)^k / k on the integer
    kernel; requires constant component equal to 1."""
    if s.parts[0] != NCPoly.unit(s.alphabet):
        raise ValueError("series_log requires component 0 equal to 1")
    u = GradedSeries._raw(s.alphabet, s.order, (NCPoly.zero(s.alphabet),) + s.parts[1:])
    return _power_sum(u, [0] + [Fraction((-1) ** (k - 1), k) for k in range(1, s.order + 1)])
