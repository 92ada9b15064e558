"""The Dynkin and Eulerian idempotents and the kernel of the Dynkin idempotent.

Each projector onto the free Lie algebra has one production construction here:

* ``dynkin`` -- right-nested bracketing r with a 1/n prefactor on whole
  homogeneous components, r(sum_a a p_a) = sum_a [a, r(p_a)], on the integer
  numerators of the polynomial, each word packed into one int so that a
  bracket is a few shifts and masks;
* ``bch_component`` -- the Eulerian idempotent e on power words, summed into
  the degree-n BCH component Z_n = sum e(x_1^i_1 ... x_k^i_k) / (i_1! ... i_k!)
  and given in Goldberg's closed form: the BCH series and the particular
  solutions only ever need e on power words, and e(x^i y^j) is i! j! times
  the bidegree-(i, j) part of Z_{i+j}.

``kernel_generator``, ``psi`` and the Patras-Reutenauer elements gamma(a) a
build the kernel of gamma from ``dynkin``.  The fixed point r(p) = n p is the
production Lie-membership test: ``bch_component`` certifies each component
with it once, and :func:`kvlie.kv._certify_lie` any other BCH series; both
raise ``NotLieElementError``.  The independent constructions that the tests
play against these (the descent-class Dynkin sum, the S_n and convolution
Eulerian sums, the explicit kernel elements and a kernel basis, the Lyndon
elimination) live in :mod:`kvlie.oracles` and its support modules.
``bch_component`` is memoised per (degree, k).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, lcm
from typing import Mapping

from .algebra import NCPoly, Word, concat, default_alphabet, letter_part


# -- Dynkin idempotent --------------------------------------------------------


def _nest_packed(terms: Mapping[Word, int]) -> tuple[dict[int, int], dict[int, int], int]:
    """(p, r(p), width) for p homogeneous of degree n >= 1 in integers, each word
    one int of n ``width``-bit fields (first letter highest; width from the
    largest letter).  Bottom-up over the prefix trie, level j holds sum_u u r(p_u)
    over prefixes u of length n - j: each term u a v of level j - 1 stays, and
    u v a, its last j letters rotated left by one, is subtracted: u [a, v]."""
    width = max(max(w) for w in terms).bit_length() or 1
    mask = (1 << width) - 1
    p: dict[int, int] = {}
    for w, c in terms.items():
        v = 0
        for a in w:
            v = v << width | a
        p[v] = c
    nested = p
    for j in range(2, len(w) + 1):
        shift = width * (j - 1)
        low, high = (1 << shift) - 1, -1 << (shift + width)
        out = dict(nested)
        get = out.get
        for v, c in nested.items():
            rotated = v & high | (v & low) << width | v >> shift & mask
            out[rotated] = get(rotated, 0) - c
        nested = {v: c for v, c in out.items() if c}
    return p, nested, width


def _right_nested(terms: Mapping[Word, int]) -> dict[Word, int]:
    """r(p) = sum_a [a, r(p_a)] for p = sum_a a * p_a homogeneous of degree >= 1,
    with r the identity on letters; words are tuples again only on output."""
    if not terms:
        return {}
    _, nested, width = _nest_packed(terms)
    mask = (1 << width) - 1
    shifts = range(width * (len(next(iter(terms))) - 1), -1, -width)
    return {tuple([v >> s & mask for s in shifts]): c for v, c in nested.items()}


def _is_lie(terms: Mapping[Word, int]) -> bool:
    """r(p) = n p (Dynkin-Specht-Wever) for p homogeneous of degree n >= 1."""
    if not terms:
        return True
    p, nested, _ = _nest_packed(terms)
    n = len(next(iter(terms)))
    return nested == {v: n * c for v, c in p.items()}


def dynkin(p: NCPoly) -> NCPoly:
    """The Dynkin idempotent gamma; projects T(V) onto the free Lie algebra.

    gamma kills constants, fixes letters, and fixes exactly the Lie elements
    (Dynkin-Specht-Wever: p of degree n is Lie iff r(p) = n p), so applying it
    twice equals applying it once.
    On the degree-n numerators, over the scale D of p, gamma is r / (n * D)
    with r the right-nested bracketing; every degree is put over D * lcm(n).
    """
    degrees = [n for n in p.degrees() if n]
    common = lcm(*degrees)
    numerators: dict[Word, int] = {}
    for n in degrees:
        part = {w: c for w, c in p.numerators.items() if len(w) == n}
        numerators.update((w, c * (common // n)) for w, c in _right_nested(part).items())
    return NCPoly._raw(p.alphabet, numerators, common * p.scale)


class NotLieElementError(ValueError):
    """Not a Lie element.  ``residual`` shows it: p - gamma(p) from production
    certification, the remainder of the Lyndon elimination from the oracle."""

    def __init__(self, residual: NCPoly):
        super().__init__(f"not a Lie element; residual {residual!r}")
        self.residual = residual


# -- Eulerian idempotent on power words: Goldberg's closed form ---------------


def _run_sequences(m: int, k: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(letters, ups, downs) for every run of m letters out of k with no two
    neighbours equal; ups and downs count the boundaries where the letter
    index rises and falls."""
    out = [((a,), 0, 0) for a in range(k)]
    for _ in range(m - 1):
        out = [
            (letters + (b,), ups + (b > letters[-1]), downs + (b < letters[-1]))
            for letters, ups, downs in out
            for b in range(k)
            if b != letters[-1]
        ]
    return out


@lru_cache(maxsize=None)
def bch_component(degree: int, k: int = 2) -> NCPoly:
    """The degree-n component Z_n of log(e^x_1 ... e^x_k), in Goldberg's closed
    form (Goldberg, "The formal power series for log e^x e^y", 1956).

    Z_n = sum over compositions (i_1, ..., i_k) of n of
    e(x_1^i_1 ... x_k^i_k) / (i_1! ... i_k!), so this is the Eulerian
    idempotent on power words, summed.  A word whose maximal runs have lengths
    r_1, ..., r_m, with a ascending and d descending run boundaries, has the
    coefficient  int_0^1 t^a (t-1)^d prod_i G_{r_i}(t) dt,  where G_1 = 1 and
    G_s = (1/s) d/dt [t(t-1) G_{s-1}].

    The kernel holds H_s = s! G_s as integer coefficient lists, walks the run
    compositions depth first with the product of each prefix shared, and
    integrates over L = lcm(1..n): L * int_0^1 t^u (t-1)^d dt is the integer
    (-1)^d L / ((u+d+1) C(u+d, d)) for u + d < n.  The integers n! L c_w,
    reduced by their gcd, are the numerators of the component, which is
    certified Lie on them (r(p) = n p, which rules out the pure powers x_a^n,
    n >= 2) once per (n, k).
    """
    n = degree
    if n < 1:
        raise ValueError("degree must be >= 1")
    alphabet = default_alphabet(k)
    H = [[], [1]]
    for s in range(2, n + 1):
        g = [a - b for a, b in zip([0, 0] + H[-1], [0] + H[-1] + [0])]  # t(t-1) H_{s-1}
        H.append([i * g[i] for i in range(1, len(g))])
    common = lcm(*range(1, n + 1))
    moment = [
        [(-1) ** d * (common // ((u + d + 1) * comb(u + d, d))) for d in range(n - u)]
        for u in range(n)
    ]
    sequences = [None] + [_run_sequences(m, k) for m in range(1, n + 1)]
    top = factorial(n)
    terms: dict[Word, int] = {}  # numerators over common * n!

    def walk(runs: tuple[int, ...], left: int, poly: list[int], runs_factorial: int) -> None:
        if not left:
            m = len(runs)
            multinomial = top // runs_factorial
            for letters, ups, downs in sequences[m]:
                numerator = sum(c * moment[ups + j][downs] for j, c in enumerate(poly) if c)
                if numerator:
                    word = tuple(a for a, r in zip(letters, runs) for _ in range(r))
                    terms[word] = numerator * multinomial
            return
        for r in range(1, left + 1):
            h = H[r]
            product = [0] * (len(poly) + len(h) - 1)
            for i, a in enumerate(poly):
                if a:
                    for j, b in enumerate(h):
                        product[i + j] += a * b
            walk(runs + (r,), left - r, product, runs_factorial * factorial(r))

    walk((), n, [1], 1)
    component = NCPoly._raw(alphabet, terms, common * top)
    if not _is_lie(component.numerators):
        raise NotLieElementError(kernel_generator(component))
    return component


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
