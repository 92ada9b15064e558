"""Words and noncommutative polynomials over the rationals.

The tensor algebra on an alphabet is modelled as the algebra of
noncommutative polynomials: a word is a tuple of letter indices, and a
polynomial (:class:`NCPoly`) is a finitely supported map from words to
nonzero rationals, stored as integer numerators over one positive denominator
in lowest terms: the form every kernel computes in, so ``Fraction``
coefficients are built only where terms are read, printed or parsed.  The
concatenation product, the Lie bracket, letter-part extraction, signed letter
substitution, weighted sums, and the text, JSON and LaTeX forms all live here
(each reads one term stream, ``reduced_terms()``, which yields word texts),
with the dense form the kernels work in: a homogeneous degree-n component
over k letters as a list of k^n integer numerators, indexed by the base-k
value of each word, first letter most significant (``dense`` and
``from_dense``).

Values are immutable once constructed; every operation returns a fresh
polynomial, so instances are safe to share.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import compress, product, repeat
from math import gcd, lcm
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from .series import GradedSeries

Word = tuple[int, ...]


class Alphabet:
    """An ordered set of distinct single-character letters.

    The fixed order induces the lexicographic order on words used for
    canonical output and for the Lyndon machinery.
    """

    __slots__ = ("letters", "_index")

    def __init__(self, letters: Iterable[str]):
        letters = tuple(letters)
        if not letters:
            raise ValueError("alphabet must not be empty")
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet letters must be distinct")
        for sym in letters:
            if len(sym) != 1:
                raise ValueError(f"letters must be single characters, got {sym!r}")
        self.letters = letters
        self._index = {sym: i for i, sym in enumerate(letters)}

    @property
    def size(self) -> int:
        return len(self.letters)

    def index(self, letter: str) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise ValueError(f"letter {letter!r} not in alphabet {self.letters}") from None

    def word(self, text: str) -> Word:
        return tuple(self.index(ch) for ch in text)

    def word_text(self, word: Word) -> str:
        return "".join(map(self.letters.__getitem__, word))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.letters)!r})"


XY = Alphabet("xy")

_LETTER_POOL = "xyzuvwabcdefgh"


def default_alphabet(k: int) -> Alphabet:
    """The alphabet used for k generators: x, y, z, u, v, w, ..."""
    if not 1 <= k <= len(_LETTER_POOL):
        raise ValueError(f"no default alphabet with {k} letters")
    return Alphabet(_LETTER_POOL[:k])


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


class Frozen:
    """Slots set once, by the constructors through ``object.__setattr__``;
    rebinding or deleting one afterwards raises AttributeError.  Subclasses
    define ``__reduce__`` to rebuild through their public constructor, so
    ``copy``, ``deepcopy`` and ``pickle`` work and give immutable values."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __delattr__(self, name):
        self.__setattr__(name, None)


class NCPoly(Frozen):
    """A noncommutative polynomial: finitely many words with rational coefficients.

    Stored as ``numerators``, a read-only map from words to nonzero ints, over
    one positive ``scale``, reduced so that gcd(scale, *numerators) == 1: the
    form is canonical, so ``==`` and ``hash`` are exact and term-wise, and no
    slot can be rebound, so a shared (cached) value cannot be changed by its
    caller.  ``terms`` is the read-only word -> Fraction view, built on access.
    Addition and subtraction use ``+``/``-``; ``*`` is the concatenation
    product when both operands are polynomials and scalar multiplication when
    one side is a rational or integer.
    """

    __slots__ = ("alphabet", "numerators", "scale")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, Fraction] | None = None):
        clean: dict[Word, Fraction] = {}
        if terms:
            size = alphabet.size
            for word, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if not coeff:
                    continue
                if any(not 0 <= i < size for i in word):
                    raise ValueError(f"word {word} has letters outside the alphabet")
                clean[word] = coeff
        # Over the lcm of lowest-terms denominators the numerators are coprime
        # to the scale already: the canonical form needs no further reduction.
        scale = lcm(*(c.denominator for c in clean.values()))
        numerators = {w: c.numerator * (scale // c.denominator) for w, c in clean.items()}
        self._fill(alphabet, numerators, scale)

    @classmethod
    def _raw(cls, alphabet: Alphabet, numerators: dict[Word, int], scale: int = 1) -> "NCPoly":
        """Trusted constructor for numerators / scale: ``numerators`` holds no
        zeros and only letters of ``alphabet``, and ``scale`` > 0; both are
        reduced here by their gcd."""
        g = gcd(scale, *numerators.values())
        if g != 1:
            numerators = {w: c // g for w, c in numerators.items()}
            scale //= g
        return cls.__new__(cls)._fill(alphabet, numerators, scale)

    def _fill(self, alphabet: Alphabet, numerators: dict[Word, int], scale: int) -> "NCPoly":
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "numerators", MappingProxyType(numerators))
        object.__setattr__(self, "scale", scale)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "NCPoly":
        return cls._raw(alphabet, {})

    @classmethod
    def unit(cls, alphabet: Alphabet) -> "NCPoly":
        return cls._raw(alphabet, {(): 1})

    @classmethod
    def letter(cls, alphabet: Alphabet, symbol: str) -> "NCPoly":
        return cls._raw(alphabet, {(alphabet.index(symbol),): 1})

    @classmethod
    def from_word(cls, alphabet: Alphabet, word: Word, coeff=Fraction(1)) -> "NCPoly":
        return cls(alphabet, {tuple(word): _as_fraction(coeff)})

    # -- basic protocol ----------------------------------------------------

    @property
    def terms(self) -> Mapping[Word, Fraction]:
        """Read-only map from words to their nonzero Fraction coefficients."""
        scale = self.scale
        return MappingProxyType({w: Fraction(c, scale) for w, c in self.numerators.items()})

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        mine = (self.alphabet, self.scale, self.numerators)
        return mine == (other.alphabet, other.scale, other.numerators)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.scale, frozenset(self.numerators.items())))

    def __repr__(self) -> str:
        return f"NCPoly({to_text(self)!r})"

    def _check_same_alphabet(self, other: "NCPoly") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch between polynomials")

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check_same_alphabet(other)
        return weighted_sum(self.alphabet, [(1, self), (1, other)])

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check_same_alphabet(other)
        return weighted_sum(self.alphabet, [(1, self), (-1, other)])

    def __neg__(self) -> "NCPoly":
        return NCPoly._raw(self.alphabet, {w: -c for w, c in self.numerators.items()}, self.scale)

    def scaled(self, scalar) -> "NCPoly":
        return weighted_sum(self.alphabet, [(_as_fraction(scalar), self)])

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            return concat(self, other)
        return self.scaled(other)

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    def __reduce__(self):
        return NCPoly, (self.alphabet, dict(self.terms))

    # -- inspection --------------------------------------------------------

    def coefficient(self, word: Word) -> Fraction:
        return Fraction(self.numerators.get(tuple(word), 0), self.scale)

    def max_degree(self) -> int:
        """Highest word length present; -1 for the zero polynomial."""
        return max((len(w) for w in self.numerators), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {len(w) for w in self.numerators}
        return len(degrees) <= 1

    def homogeneous_component(self, degree: int) -> "NCPoly":
        return NCPoly._raw(
            self.alphabet,
            {w: c for w, c in self.numerators.items() if len(w) == degree},
            self.scale,
        )

    def degrees(self) -> list[int]:
        return sorted({len(w) for w in self.numerators})

    def reduced_terms(self) -> Iterator[tuple[str, int, int]]:
        """(word text, numerator, denominator) of each coefficient in lowest
        terms, in print order: by degree, then lexicographically on the tuple
        words (the letter order, not string order); one gcd per word."""
        scale, word_text = self.scale, self.alphabet.word_text
        for word, c in sorted(self.numerators.items(), key=lambda item: (len(item[0]), item[0])):
            g = gcd(c, scale)
            yield word_text(word), c // g, scale // g


_ZERO = Fraction(0)


# -- the dense form of a homogeneous component ---------------------------------


def dense(numerators: Mapping[Word, int], degree: int, letters: Sequence[int]) -> list[int]:
    """The degree-n numerators over all k^n words of the k ``letters``, zeros
    included: with letters[i] as digit i (``range(k)`` for 0..k-1), word
    (a_1, ..., a_n) sits at sum_i a_i k^(n-i), as ``product(letters, repeat=n)`` lists it."""
    return list(map(numerators.get, product(letters, repeat=degree), repeat(0)))


def from_dense(vector, degree: int, letters: Sequence[int]) -> dict[Word, int]:
    """The nonzero entries of a dense degree-n vector, keyed by their words."""
    return dict(compress(zip(product(letters, repeat=degree), vector), vector))


# -- products and brackets ---------------------------------------------------


def concat(p: NCPoly, q: NCPoly) -> NCPoly:
    """Concatenation product, the bilinear extension of word concatenation."""
    p._check_same_alphabet(q)
    terms: dict[Word, int] = {}
    for wp, cp in p.numerators.items():
        for wq, cq in q.numerators.items():
            word = wp + wq
            terms[word] = terms.get(word, 0) + cp * cq
    return NCPoly._raw(p.alphabet, {w: c for w, c in terms.items() if c}, p.scale * q.scale)


def bracket(p: NCPoly, q: NCPoly) -> NCPoly:
    """Lie bracket [p, q] = pq - qp."""
    return concat(p, q) - concat(q, p)


def letter_part(p: NCPoly, letter: str) -> NCPoly:
    """The right factor b in the decomposition p = sum_z z*b_z + constant.

    Keeps only the words of p beginning with ``letter``, stripped of that
    leading letter; every other word, and the constant term, is discarded.
    """
    idx = p.alphabet.index(letter)
    terms = {w[1:]: c for w, c in p.numerators.items() if w and w[0] == idx}
    return NCPoly._raw(p.alphabet, terms, p.scale)


def substitute(p: NCPoly, images: Mapping[str, str]) -> NCPoly:
    """Letter-wise signed substitution, extended multiplicatively.

    ``images`` maps every letter occurring in p to a letter or its negation,
    written "y" or "-y"; a word picks up -1 for each negated image.
    """
    alphabet = p.alphabet
    table: dict[int, tuple[int, int]] = {}  # letter -> (image letter, sign)
    for src, dst in images.items():
        dst = dst.strip()
        sign = -1 if dst.startswith("-") else 1
        table[alphabet.index(src)] = (alphabet.index(dst[1:].strip() if sign < 0 else dst), sign)
    terms: dict[Word, int] = {}
    for word, coeff in p.numerators.items():
        sign = 1
        out = []
        for i in word:
            if i not in table:
                raise ValueError(f"no image for letter {alphabet.letters[i]!r} in substitution")
            j, s = table[i]
            out.append(j)
            sign *= s
        new_word = tuple(out)
        terms[new_word] = terms.get(new_word, 0) + sign * coeff
    return NCPoly._raw(alphabet, {w: c for w, c in terms.items() if c}, p.scale)


def weighted_sum(alphabet: Alphabet, items) -> NCPoly:
    """sum of weight * p over (weight, p) items, accumulated in integers over
    the lcm of the weighted scales."""
    items = [(w, p) for w, p in items if w and p]
    common = lcm(*(w.denominator * p.scale for w, p in items))
    out: dict[Word, int] = {}
    for weight, p in items:
        factor = weight.numerator * (common // (weight.denominator * p.scale))
        for word, c in p.numerators.items():
            out[word] = out.get(word, 0) + factor * c
    return NCPoly._raw(alphabet, {w: c for w, c in out.items() if c}, common)


# -- text, JSON and LaTeX forms ----------------------------------------------


def _ratio_text(num: int, den: int) -> str:
    """num/den in lowest terms, written as ``str`` writes a ``Fraction``."""
    return str(num) if den == 1 else f"{num}/{den}"


def _signed_terms(p: NCPoly | GradedSeries, body) -> str:
    """The terms of p in print order joined with signs; body(|num|, den, word
    text) renders one.  Every form reads the one stream ``p.reduced_terms()``."""
    pieces: list[str] = []
    for k, (wtext, num, den) in enumerate(p.reduced_terms()):
        sign = ("-" if num < 0 else "") if k == 0 else ("- " if num < 0 else "+ ")
        pieces.append(sign + body(abs(num), den, wtext))
    return " ".join(pieces) or "0"


def _text_body(num: int, den: int, wtext: str) -> str:
    if not wtext:
        return _ratio_text(num, den)
    return wtext if num == den == 1 else f"{_ratio_text(num, den)}*{wtext}"


def to_text(p: NCPoly | GradedSeries) -> str:
    """Canonical text form of an NCPoly or a GradedSeries, e.g. "1/4*y + 1/24*xy - 1/24*yx"."""
    return _signed_terms(p, _text_body)


def to_json_terms(p: NCPoly | GradedSeries) -> list[dict[str, str]]:
    """The terms of an NCPoly or a GradedSeries in print order, as {"word", "coeff"} items."""
    return [{"word": wtext, "coeff": _ratio_text(num, den)} for wtext, num, den in p.reduced_terms()]


def _latex_body(num: int, den: int, wtext: str) -> str:
    if den == 1:
        ctext = "" if num == 1 else str(num)
    else:
        ctext = f"\\frac{{{num}}}{{{den}}}"
    return (ctext + wtext) or "1"


def to_latex(p: NCPoly | GradedSeries) -> str:
    """LaTeX form of an NCPoly or a GradedSeries, e.g. "\\frac{1}{2}xy - \\frac{1}{2}yx"."""
    return _signed_terms(p, _latex_body)


# One term: [sign] [a ['/' b] ['*']] word, whitespace allowed anywhere; the word
# runs to the next sign.  Digits are ASCII only: \d would also match other
# decimal digits (Arabic-Indic), which int() reads as if they were ASCII.
_TERM = re.compile(r"\s*(?P<sign>[-+]?)\s*"
                   r"(?:(?P<num>[0-9]+)\s*(?:/\s*(?P<den>[0-9]*))?\s*(?P<star>\*?)\s*)?"
                   r"(?P<word>[^-+]*)")


class PolyParseError(ValueError):
    """Raised when polynomial text does not match the grammar; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _digit_run(m: re.Match, group: str) -> int:
    """The integer in the digit run ``group`` of a ``_TERM`` match; 1 if absent.
    A run is held to Python's default int-to-str limit whatever limit is set."""
    run = m[group] or "1"
    if len(run) > sys.int_info.default_max_str_digits:
        raise PolyParseError("too many digits", m.start(group))
    return int(run)


def parse_poly(alphabet: Alphabet, text: str) -> NCPoly:
    """Parse polynomial text, one ``_TERM`` match per term: a term needs a
    coefficient or a letter, and a letter after any '*'.  Reparses :func:`to_text`."""
    if not text.strip():
        raise PolyParseError("empty polynomial", 0)
    terms: dict[Word, Fraction] = {}
    pos, n = 0, len(text)
    while pos < n:
        m = _TERM.match(text, pos)
        pos, word = m.end(), m["word"]
        if m["num"] is None and not word:
            raise PolyParseError("dangling sign" if pos == n else "expected a term", pos)
        if m["den"] == "":
            raise PolyParseError("expected denominator digits", m.start("den"))
        num, den = _digit_run(m, "num"), _digit_run(m, "den")
        if den == 0:
            raise PolyParseError("zero denominator", m.start("den"))
        if m["star"] and not word:
            raise PolyParseError("expected word after '*'", pos)
        letters = "".join(word.split())
        try:
            key = alphabet.word(letters)
        except ValueError:
            bad = next(ch for ch in letters if ch not in alphabet.letters)
            raise PolyParseError(f"unknown letter {bad!r}", m.start("word") + word.index(bad)) from None
        terms[key] = terms.get(key, _ZERO) + Fraction(-num if m["sign"] == "-" else num, den)
    return NCPoly(alphabet, terms)
