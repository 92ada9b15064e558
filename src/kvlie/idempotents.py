"""The Dynkin and Eulerian idempotents and the kernel of the Dynkin idempotent.

Each projector onto the free Lie algebra has one production construction here:

* ``dynkin`` -- right-nested bracketing r with a 1/n prefactor on whole
  homogeneous components, r(sum_a a p_a) = sum_a [a, r(p_a)], on the integer
  numerators of the polynomial;
* ``bch_component`` -- the Eulerian idempotent e on power words, summed into
  the degree-n BCH component Z_n = sum e(x_1^i_1 ... x_k^i_k) / (i_1! ... i_k!)
  and given in Goldberg's closed form: the BCH series and the particular
  solutions only ever need e on power words, and e(x^i y^j) is i! j! times
  the bidegree-(i, j) part of Z_{i+j}.

r runs in two forms.  On a stored component (``_nest``) it reads the dense
form: the integer numerators of all k^n words of degree n over k letters,
indexed by the base-k value of the word, first letter most significant
(:func:`kvlie.algebra.dense`), the form a :class:`kvlie.series.GradedSeries`
stores, where a level of r is one fixed permutation of the index.  ``dynkin``
reads word dicts only (user input, Psi and kernel generators), so it runs r
over the words present, each packed into one int (``_nest_packed``).
The Goldberg kernel reads each word's class in the dense index order.

``kernel_generator``, ``psi`` and the Patras-Reutenauer elements gamma(a) a
build the kernel of gamma from ``dynkin``.  The fixed point r(p) = n p is the
production Lie-membership test, written once (``_lie_level``): one pass of r
on a stored component, ``_nest`` per leading-letter block, a block that
mirrors another (the antipodal symmetry of BCH components) read from it; it
raises ``NotLieElementError`` with the residual p - gamma(p) = (n p - r(p)) / n
of that same pass, or returns the level whose block z is r(p_z).
``_goldberg`` certifies each BCH component with it once per (degree, k) and
keeps that level, the one store of BCH levels that :mod:`kvlie.kv` reads;
:func:`kvlie.kv._certify_lie` certifies the other BCH series and keeps none.
The independent constructions that the tests play against these (the
descent-class Dynkin sum, the S_n and convolution Eulerian sums, the kernel
elements and basis, the Lyndon elimination) live in :mod:`kvlie.oracles` and
its support modules.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import comb, factorial, gcd, lcm
from operator import add, sub
from typing import Mapping, Sequence

from .algebra import Alphabet, NCPoly, Word, concat, default_alphabet, from_dense, letter_part


# -- Dynkin idempotent --------------------------------------------------------


def _nest(vector: Sequence[int], k: int) -> tuple[list[int], list[int]]:
    """(level n-1, level n) of r on a dense component p of degree n >= 1.

    Level j holds sum_u u r(p_u) over the prefixes u of length n - j (level 1
    is p, level n is r(p), and block z of level n-1 is r(p_z)).  Going from
    level j - 1 to level j keeps each word u a v and subtracts it at u v a,
    its last j letters rotated left by one: u [a, v].  On the base-k index
    that rotation is a perfect shuffle inside each block of k^j, which sends
    the words a v of each letter a to a stride-k slice: k slice copies per
    block, or per v when there are more blocks than v, and one subtraction.
    """
    size = len(vector)
    previous = current = list(vector)
    width = k
    while width < size:
        step, width = width, width * k
        rotated = [0] * size
        for a in range(k):
            if size // width <= step:
                for start in range(0, size, width):
                    rotated[start + a : start + width : k] = current[start + a * step : start + (a + 1) * step]
            else:
                for v in range(step):
                    rotated[a + k * v :: width] = current[a * step + v :: width]
        previous, current = current, list(map(sub, current, rotated))
    return previous, current


def _nest_packed(terms: Mapping[Word, int]) -> dict[Word, int]:
    """r(p) on a word dict, level by level as in ``_nest`` but over the words
    present only, each word one int of n ``width``-bit fields (first letter
    highest; width from the largest letter)."""
    width = max(max(w) for w in terms).bit_length() or 1
    mask = (1 << width) - 1
    nested: dict[int, int] = {}
    for w, c in terms.items():
        v = 0
        for a in w:
            v = v << width | a
        nested[v] = c
    n = len(w)
    for j in range(2, n + 1):
        shift = width * (j - 1)
        low, high = (1 << shift) - 1, -1 << (shift + width)
        out = dict(nested)
        get = out.get
        for v, c in nested.items():
            rotated = v & high | (v & low) << width | v >> shift & mask
            out[rotated] = get(rotated, 0) - c
        nested = {v: c for v, c in out.items() if c}
    shifts = range(width * (n - 1), -1, -width)
    return {tuple([v >> s & mask for s in shifts]): c for v, c in nested.items()}


def dynkin(p: NCPoly) -> NCPoly:
    """The Dynkin idempotent gamma; projects T(V) onto the free Lie algebra.

    gamma kills constants, fixes letters, and fixes exactly the Lie elements
    (Dynkin-Specht-Wever: p of degree n is Lie iff r(p) = n p), so applying it
    twice equals applying it once.
    On the degree-n numerators, over the scale D of p, gamma is r / (n * D)
    with r the right-nested bracketing, r(sum_a a p_a) = sum_a [a, r(p_a)];
    every degree is put over D * lcm(n).
    """
    degrees = [n for n in p.degrees() if n]
    common = lcm(*degrees)
    numerators: dict[Word, int] = {}
    for n in degrees:
        nested = _nest_packed({w: c for w, c in p.numerators.items() if len(w) == n})
        numerators.update((w, c * (common // n)) for w, c in nested.items())
    return NCPoly._raw(p.alphabet, numerators, common * p.scale)


class NotLieElementError(ValueError):
    """Not a Lie element.  ``residual`` shows it: p - gamma(p) from production
    certification, the remainder of the Lyndon elimination from the oracle."""

    def __init__(self, residual: NCPoly):
        super().__init__(f"not a Lie element; residual {residual!r}")
        self.residual = residual


def _lie_level(alphabet: Alphabet, letters: Sequence[int], n: int, part: tuple) -> tuple[int, ...]:
    """Level n-1 of r on a stored part (vector, scale) of degree n >= 1 over
    the sorted ``letters``, whose block z is r(p_z): the one r pass that
    certifies p Lie by the Dynkin-Specht-Wever test r(p) = n p, or raises
    NotLieElementError(p - gamma(p)), read from the same pass.  Above degree
    1 it runs ``_nest`` per block; reversing the letters reverses the index
    and commutes with r, so where block k-1-z of p is (-1)^(n+1) block z
    reversed, as in every BCH component, r(p_(k-1-z)) is r(p_z) mirrored
    alike.  r(p) = sum_z (z r(p_z) - r(p_z) z) is the blocks joined minus
    each r(p_z) written to z::k."""
    (vector, scale), k = part, len(letters)
    if n == 1:
        nested, full = _nest(vector, k)
    else:  # match(block, twin reversed) vanishes where the block is sign times that
        size, sign, match = k ** (n - 1), (-1) ** (n + 1), sub if n % 2 else add
        blocks: list = []
        for z in range(k):
            block, twin = vector[z * size : (z + 1) * size], k - 1 - z
            if twin < z and not any(map(match, block, reversed(vector[twin * size : (twin + 1) * size]))):
                blocks.append([sign * c for c in reversed(blocks[twin])])
            else:
                blocks.append(_nest(block, k)[1])
        nested, right = list(chain.from_iterable(blocks)), [0] * (k * size)
        for z, block in enumerate(blocks):
            right[z::k] = block
        full = list(map(sub, nested, right))
    if full != [n * c for c in vector]:  # p - gamma(p) = (n p - r(p)) / n
        residual = from_dense([n * c - f for c, f in zip(vector, full)], n, letters)
        raise NotLieElementError(NCPoly._raw(alphabet, residual, n * scale))
    return tuple(nested)


# -- Eulerian idempotent on power words: Goldberg's closed form ---------------


def _class_numerators(poly: list[int], m: int, moment: list[list[int]]) -> list[int]:
    """L int_0^1 t^u (t-1)^(m-1-u) P(t) dt for u = 0..m-1, with P = sum_j
    poly[j] t^j: the coefficient, times L, of each word with m runs, u
    ascending and m-1-u descending run boundaries, whose run polynomials
    multiply to P."""
    return [sum(c * moment[u + j][m - 1 - u] for j, c in enumerate(poly) if c) for u in range(m)]


def bch_component(degree: int, k: int = 2) -> NCPoly:
    """The degree-n component Z_n of log(e^x_1 ... e^x_k), in Goldberg's closed
    form (Goldberg, "The formal power series for log e^x e^y", 1956).

    Z_n = sum over compositions (i_1, ..., i_k) of n of
    e(x_1^i_1 ... x_k^i_k) / (i_1! ... i_k!), so this is the Eulerian
    idempotent on power words, summed.  A word whose maximal runs have lengths
    r_1, ..., r_m, with a ascending and d descending run boundaries, has the
    coefficient  int_0^1 t^a (t-1)^d prod_i G_{r_i}(t) dt,  where G_1 = 1 and
    G_s = (1/s) d/dt [t(t-1) G_{s-1}].  Built and certified Lie once per
    (n, k), by ``_goldberg``; its word dict is built on each call.
    """
    vector, scale, _ = _goldberg(degree, k)
    return NCPoly._raw(default_alphabet(k), from_dense(vector, degree, range(k)), scale)


@lru_cache(maxsize=None)
def _goldberg(n: int, k: int) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """(vector, scale, level): Z_n as its dense numerators over k letters and
    their scale, and level n-1 of r on them, whose block z, the k^(n-1)
    entries from z k^(n-1) on, is r((Z_n)_z) over the same scale.

    The kernel holds H_s = s! G_s as integer coefficient lists and integrates
    over L = lcm(1..n): L * int_0^1 t^u (t-1)^d dt is the integer
    (-1)^d L / ((u+d+1) C(u+d, d)) for u + d < n.  The coefficient depends on
    the multiset of run lengths and the ascents only, so n! L c_w is computed
    once per (multiset, ascents).  A word's class (closed run lengths, sorted;
    open run length; last letter; ascents) is read letter by letter: level j
    lists the class ids of the k^j words of length j in base-k order, each
    class finds its k successors once per level, and the last letter maps
    each class of length n-1 to its k numerators.  The integers, reduced by
    their gcd, are the numerators of Z_n, certified Lie on them (r(p) = n p,
    which rules out the pure powers x_a^n, n >= 2) by the one pass of r whose
    level n-1 is kept.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    H = [[], [1]]
    for s in range(2, n + 1):
        g = [a - b for a, b in zip([0, 0] + H[-1], [0] + H[-1] + [0])]  # t(t-1) H_{s-1}
        H.append([i * g[i] for i in range(1, len(g))])
    common = lcm(*range(1, n + 1))
    moment = [
        [(-1) ** d * (common // ((u + d + 1) * comb(u + d, d))) for d in range(n - u)]
        for u in range(n)
    ]
    top = factorial(n)
    tables: dict[tuple[int, ...], list[int]] = {}

    def numerator(word_class: tuple) -> int:
        closed, run, _, ups = word_class
        key = tuple(sorted(closed + (run,)))
        if key not in tables:
            poly, multinomial = [1], top
            for r in key:
                h = H[r]
                product = [0] * (len(poly) + len(h) - 1)
                for i, a in enumerate(poly):
                    if a:
                        for j, b in enumerate(h):
                            product[i + j] += a * b
                poly, multinomial = product, multinomial // factorial(r)
            tables[key] = [multinomial * c for c in _class_numerators(poly, len(key), moment)]
        return tables[key][ups]

    def extend(key: tuple, b: int) -> tuple:
        closed, run, last, ups = key
        if b == last:
            return closed, run + 1, last, ups
        return tuple(sorted(closed + (run,))) if run else closed, 1, b, ups + (b > last)

    classes, level = [((), 0, -1, -1)], [0]  # the empty word; its first letter counts no ascent
    for _ in range(n - 1):
        ids: dict[tuple, int] = {}
        step = [[ids.setdefault(extend(key, b), len(ids)) for b in range(k)] for key in classes]
        classes, level = list(ids), [t for s in level for t in step[s]]
    # numerators over common * n!, k per class of length n-1; each is some word's, so the
    # gcd over the rows is the gcd over the words
    rows = [[numerator(extend(key, b)) for b in range(k)] for key in classes]
    scale = common * top
    g = gcd(scale, *(c for row in rows for c in row))
    rows = [[c // g for c in row] for row in rows]
    part = tuple(c for s in level for c in rows[s]), scale // g
    return (*part, _lie_level(default_alphabet(k), range(k), n, part))


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
