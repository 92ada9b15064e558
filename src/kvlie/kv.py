"""Constructions and verifiers for the first Kashiwara-Vergne equation.

Everything specific to the equation

    x + y - log(e^y e^x) = (1 - e^(-ad x)) F(x,y) + (e^(ad y) - 1) G(x,y)

lives here: the Baker-Campbell-Hausdorff series, its split into the Dynkin
images of the x-leading and y-leading monomials, the operator calculus
E(z) = exp(ad z) - 1 and its Bernoulli inverse, the explicit particular
solution, the parameterisation of all solutions by the kernel of the Dynkin
idempotent, and the multilinear generalisation

    sum_{n>=2} Phi_n(x_k, ..., x_1) = sum_i E((-1)^i x_i) F_i,

whose case k = 2 with (F_1, F_2) = (F, -G) is the equation above.

Every series here is a :class:`kvlie.series.GradedSeries` in its stored dense
form, built with no word dict.  The BCH levels have one holder, the
``_goldberg`` cache of :mod:`kvlie.idempotents`: each entry is Z_n and the
level of the one r pass that certified it.  ``bch_eulerian`` is the Goldberg
vectors as a series; ``bch_oracle`` (log of a product of exponentials, which
``kvlie bch --method oracle|both`` prints) is certified by ``_certify_lie``.
The letter-nested series b_{n-1} = r((Phi_n)_z) / n is block z of level n-1
(``_letter_nested``), so it costs no r pass.  It gives the split
gamma(z (Phi_n)_z) = [z, b_{n-1}] (``phi_split``) and, on the reversed tail
log(e^x_k ... e^x_1), whose component n is (-1)^(n+1) Z_n, the particular
solutions F_i = (-1)^i Ber((-1)^i x_i) b (``multilinear_f0``; ``f0`` is its
case i = 1, k = 2).  Each operator, particular solution and verifier is one
:func:`kvlie.series._ad_sum` call, which places the binomial terms of each ad
power as slices and builds none; a verifier sums its target (the reversed
tail, or ad(x) b for the split) and -E((-1)^i x_i) F_i for each i.  G0 and
the symmetrisation read F(-y, -x) as each vector reversed and signed
(``_negate_swap``).  The other oracles live in :mod:`kvlie.oracles`.  Identity
checks return full graded defect series, so a failure is diagnosable term by term.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import factorial, lcm
from typing import NamedTuple

from .algebra import XY, Alphabet, NCPoly, Rational, concat, default_alphabet, letter_part, substitute
from .idempotents import _goldberg, _lie_level, dynkin, kernel_generator
from .scalars import _bernoulli
from .series import GradedSeries, _ad_sum, _over, series_exp, series_log

NEGATE_SWAP = {"x": "-y", "y": "-x"}


# -- operators: weighted sums sum_j w_j ad(z)^j, each one ``_ad_sum`` call ------


def _exp_weights(order: int, sign: int = 1) -> tuple[list[int], int]:
    """sign times the weights of E(z) = exp(ad z) - 1: 0, then 1/j!."""
    return [0] + [sign * factorial(order) // factorial(j) for j in range(1, order + 1)], factorial(order)


def _bernoulli_weights(order: int, sign: int = 1) -> tuple[list[int], int]:
    """sign times the weights of Ber(z): B_j / j!."""
    ratios = [(n, d * factorial(j)) for j, (n, d) in enumerate(map(_bernoulli, range(order + 1)))]
    den = lcm(*(d for _, d in ratios))
    return [sign * n * (den // d) for n, d in ratios], den


def op_ad(base: NCPoly, s: GradedSeries) -> GradedSeries:
    """ad(base) applied componentwise; base must be homogeneous of degree 1."""
    return _ad_sum(s.order, [(base, ((0, 1), 1), s)])


def op_exp_ad_minus_one(base: NCPoly, s: GradedSeries) -> GradedSeries:
    """E(base) = exp(ad base) - 1, truncated at the series order."""
    return _ad_sum(s.order, [(base, _exp_weights(s.order), s)])


def op_bernoulli(base: NCPoly, s: GradedSeries) -> GradedSeries:
    """Ber(base) = sum_k B_k ad(base)^k / k!, the inverse of E up to ad."""
    return _ad_sum(s.order, [(base, _bernoulli_weights(s.order), s)])


def _signed_letter(alphabet: Alphabet, i: int) -> NCPoly:
    """(-1)^i x_i, the operator base of the i-th term of the multilinear
    equation: -x and y for the two-variable one."""
    return NCPoly.letter(alphabet, alphabet.letters[i - 1]).scaled((-1) ** i)


# -- Baker-Campbell-Hausdorff series -----------------------------------------


def _certify_lie(series: GradedSeries) -> GradedSeries:
    """``series``, once one r pass per stored component of degree n >= 1 has
    found r(p) = n p; else that pass raises NotLieElementError(p - gamma(p))."""
    for n, part in enumerate(series.dense):
        if n and part:
            _lie_level(series.alphabet, series.letters, n, part)
    return series


def bch_eulerian(order: int, k: int = 2) -> GradedSeries:
    """BCH series from the Eulerian idempotent on power words, for any k.

    This is the production construction: component m is the dense vector of
    :func:`kvlie.idempotents.bch_component`, Goldberg's closed form of
    sum e(x_1^i_1 ... x_k^i_k) / (i_1! ... i_k!) over the power words of
    degree m, which certifies it to be a Lie element.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    parts = [None] + [_goldberg(m, k)[:2] for m in range(1, order + 1)]
    return GradedSeries._raw(default_alphabet(k), range(k), parts)


@lru_cache(maxsize=None)
def bch_oracle(order: int, k: int = 2) -> GradedSeries:
    """Ground-truth BCH series: log of the ordered product of exponentials."""
    if order < 1:
        raise ValueError("order must be >= 1")
    alphabet = default_alphabet(k)
    product = GradedSeries.one(alphabet, order)
    for letter in alphabet.letters:
        product = product * series_exp(GradedSeries.generator(alphabet, letter, order))
    return _certify_lie(series_log(product))


def _reversed_tail(order: int, k: int) -> GradedSeries:
    """sum_{n>=2} Phi_n(x_k, ..., x_1) through ``order``: component n is
    (-1)^(n+1) Z_n, the Goldberg vector with even degrees negated."""
    tables = [_goldberg(n, k) for n in range(2, order + 1)]
    tail = [(v if n % 2 else [-c for c in v], s) for n, (v, s, _) in enumerate(tables, 2)]
    return GradedSeries._raw(default_alphabet(k), range(k), [None, None][: order + 1] + tail)


# -- the split of the BCH series ----------------------------------------------


def _letter_nested(order: int, k: int, z: int, sign: int = 1) -> GradedSeries:
    """b with b_d = sign^d r((Z_{d+1})_z) / (d+1) for 1 <= d < order, zero
    elsewhere, over k letters, z the index of the letter: block z of the level
    of r that certified Z_{d+1} (``_goldberg``).  sign = -1 gives b of the
    reversed tail, whose component n is (-1)^(n+1) Z_n."""
    parts = [None] * (order + 1)
    for d in range(1, order):
        _, scale, level = _goldberg(d + 1, k)
        block = level[z * k**d : (z + 1) * k**d]
        parts[d] = ([-c for c in block] if sign < 0 and d % 2 else block, (d + 1) * scale)
    return GradedSeries._raw(default_alphabet(k), range(k), parts)


def phi_split(order: int) -> tuple[GradedSeries, GradedSeries]:
    """Dynkin images of the leading-letter halves of the BCH tail through ``order``.

    Returns (plus, minus) with plus_n = gamma(x * (Phi_n)_x) = [x, b_{n-1}]
    and minus_n = gamma(y * (Phi_n)_y) for n >= 2, b the letter-nested series
    of each letter; their sum restores Phi_n.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return tuple(op_ad(NCPoly.letter(XY, z), _letter_nested(order, 2, i)) for i, z in enumerate(XY.letters))


# -- the particular solution ----------------------------------------------------


def multilinear_f0(index: int, k: int, order: int) -> GradedSeries:
    """The i-th component F_{i,0} = (-1)^i Ber((-1)^i x_i) b of the particular
    solution of the multilinear equation, for b the letter-nested series of
    the reversed BCH tail at x_i (``_letter_nested``): it solves
    E((-1)^i x_i) F_i = ad(x_i) b, the x_i-leading share of that tail.
    """
    if k < 2:
        raise ValueError("the multilinear equation needs at least two variables")
    if not 1 <= index <= k:
        raise ValueError(f"variable index {index} out of range for {k} variables")
    if order < 0:
        raise ValueError("order must be >= 0")
    alphabet = default_alphabet(k)
    b = _letter_nested(order + 1, k, index - 1, -1)
    weights = _bernoulli_weights(order, (-1) ** index)
    return _ad_sum(order, [(_signed_letter(alphabet, index), weights, b)])


def multilinear_particular_solution(k: int, order: int) -> list[GradedSeries]:
    return [multilinear_f0(i, k, order) for i in range(1, k + 1)]


@lru_cache(maxsize=None)
def f0(order: int) -> GradedSeries:
    """The particular solution F0(x, y) = -Ber(-x) b(x, y): the case i = 1,
    k = 2 of :func:`multilinear_f0`."""
    return multilinear_f0(1, 2, order)


def g0(order: int) -> GradedSeries:
    """G0(x, y) = F0(-y, -x)."""
    return _negate_swap(f0(order))


def _negate_swap(s: GradedSeries) -> GradedSeries:
    """s(-y, -x) for s over x and y: the swap reverses the index over both
    letters, so component d is (-1)^d times its vector reversed (a series over
    one letter is put on that index first)."""
    s = _over(s, (0, 1))
    parts = [part and ([(-1) ** d * c for c in reversed(part[0])], part[1]) for d, part in enumerate(s.dense)]
    return GradedSeries._raw(s.alphabet, s.letters, parts)


class KvSolutionPair(NamedTuple):
    """A candidate (F, G) pair for the first Kashiwara-Vergne equation."""

    F: GradedSeries
    G: GradedSeries

    @property
    def order(self) -> int:
        return self.F.order


def particular_solution(order: int) -> KvSolutionPair:
    return KvSolutionPair(f0(order), g0(order))


# -- verifiers: the tail against sum_i E((-1)^i x_i) F_i ---------------------------


def _checked_order(order: int | None, available: int, what: str) -> int:
    """The order to verify through: ``order``, or ``available`` when None.

    Raises ValueError below 1, where nothing is checked, and above what the
    given series carry, so that truncation is never mistaken for a defect.
    """
    order = available if order is None else order
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > available:
        raise ValueError(f"order {order} is above the order {available} of the {what}")
    return order


def _operator_terms(alphabet: Alphabet, solutions: list[GradedSeries], order: int, sign: int = -1):
    """The ``_ad_sum`` terms of sign * sum_i E((-1)^i x_i) F_i through ``order``."""
    weights = _exp_weights(order, sign)
    return [(_signed_letter(alphabet, i), weights, F) for i, F in enumerate(solutions, start=1)]


def verify_multilinear(solutions: list[GradedSeries], order: int | None = None) -> GradedSeries:
    """Defect of the multilinear first equation for a tuple (F_1, ..., F_k):

    sum_{m>=2} Phi_m(x_k, ..., x_1) - sum_i E((-1)^i x_i) F_i.
    """
    k = len(solutions)
    if k < 2:
        raise ValueError("need at least two solution components")
    order = _checked_order(order, min(F.order for F in solutions), "solution tuple")
    alphabet = default_alphabet(k)
    target = (NCPoly.zero(alphabet), ((1,), 1), _reversed_tail(order, k))
    return _ad_sum(order, [target, *_operator_terms(alphabet, solutions, order)])


def verify_kv1(pair: KvSolutionPair, order: int | None = None) -> GradedSeries:
    """Defect of the rewritten first equation:

    sum_{n>=2} Phi_n(y, x) - E(-x) F + E(y) G, the case k = 2 of
    :func:`verify_multilinear` with (F_1, F_2) = (F, -G); identically zero
    exactly for solutions of the Kashiwara-Vergne first equation.
    """
    return verify_multilinear([pair.F, -pair.G], order)


def verify_homogeneous(pair: KvSolutionPair, order: int | None = None) -> GradedSeries:
    """Defect of the homogeneous equation E(-x) F = E(y) G: the operator sum
    on (F, -G)."""
    order = _checked_order(order, min(pair.F.order, pair.G.order), "pair (F, G)")
    return _ad_sum(order, _operator_terms(XY, [pair.F, -pair.G], order, 1))


def verify_split(F: GradedSeries, order: int | None = None) -> GradedSeries:
    """Defect of the split equation: Phi^-(y, x) - E(-x) F, where Phi^-(y, x)
    = ad(x) b is the x-leading share of the reversed BCH tail."""
    order = _checked_order(order, F.order, "series F")
    share = (NCPoly.letter(XY, "x"), ((0, 1), 1), _letter_nested(order, 2, 0, -1))
    return _ad_sum(order, [share, *_operator_terms(XY, [F], order)])


# -- symmetrisation and the solution space ----------------------------------------


def symmetrize(pair: KvSolutionPair, lam: Rational = 0) -> KvSolutionPair:
    """Symmetrise a solution:

    F1 = (F + G(-y,-x))/2 + lam*x,  G1 = (G + F(-y,-x))/2 - lam*y,
    which satisfies G1(x, y) = F1(-y, -x).
    """
    if not verify_kv1(pair).is_zero():
        raise ValueError("input pair is not a solution of the first equation")
    from fractions import Fraction  # here only: no command symmetrises
    order = pair.order
    half = Fraction(1, 2)
    x_series = GradedSeries.generator(XY, "x", order)
    y_series = GradedSeries.generator(XY, "y", order)
    F1 = (pair.F + _negate_swap(pair.G)).scaled(half) + x_series.scaled(lam)
    G1 = (pair.G + _negate_swap(pair.F)).scaled(half) - y_series.scaled(lam)
    return KvSolutionPair(F1, G1)


def homogeneous_solution(
    p: NCPoly,
    lambda1: Rational = 0,
    lambda2: Rational = 0,
    order: int = 8,
) -> KvSolutionPair:
    """The homogeneous-equation solution attached to a kernel element p:

    F = Ber(-x) gamma(p_x) + lambda1 * x,  G = Ber(y) gamma(p_y) + lambda2 * y.

    Requires gamma(p) = 0; every solution of E(-x)F = E(y)G arises this way.
    """
    if dynkin(p):
        raise ValueError("polynomial is not in the kernel of the Dynkin idempotent")
    x_series, y_series = (GradedSeries.generator(XY, z, order) for z in XY.letters)
    F = x_series.scaled(lambda1)
    G = y_series.scaled(lambda2)
    if p:  # the zero kernel element has no Ber term
        P = GradedSeries.from_poly(dynkin(letter_part(p, "x")), order)
        Q = GradedSeries.from_poly(dynkin(letter_part(p, "y")), order)
        F = op_bernoulli(_signed_letter(XY, 1), P) + F
        G = op_bernoulli(_signed_letter(XY, 2), Q) + G
    return KvSolutionPair(F, G)


def general_solution(
    p: NCPoly,
    lambda1: Rational = 0,
    lambda2: Rational = 0,
    order: int = 8,
) -> KvSolutionPair:
    """The solution of the first equation attached to an arbitrary polynomial p:

    F = F0 + Ber(-x) Psi_x(p) + lambda1 * x,
    G = G0 + Ber(y)  Psi_y(p) + lambda2 * y.

    Psi_z(p) = gamma((p - gamma(p))_z), so this is the particular solution
    plus the homogeneous solution of the kernel element p - gamma(p): no
    precondition on p is needed, and a Lie p (p = 0 among them) adds only the
    lambda terms to the particular solution, none when they are zero.
    """
    h = homogeneous_solution(kernel_generator(p), lambda1, lambda2, order)
    F0, G0 = particular_solution(order)
    return KvSolutionPair(F0 + h.F if h.F else F0, G0 + h.G if h.G else G0)


def antisymmetric_kernel_element(p: NCPoly) -> NCPoly:
    """A(p) = gamma(p) p - gamma(q) q with q = p(-y, -x).

    Lies in the kernel of the Dynkin idempotent and is antisymmetric under
    the substitution (x, y) -> (-y, -x).  Homogeneous input only, as for
    the plain kernel generators gamma(a)a.
    """
    if p.alphabet.size != 2:
        raise ValueError("antisymmetric kernel elements are defined for two variables")
    if not p.is_homogeneous():
        raise ValueError("antisymmetric kernel elements require homogeneous input")
    q = substitute(p, NEGATE_SWAP)
    return concat(dynkin(p), p) - concat(dynkin(q), q)


def clear_caches() -> None:
    """Drop every memoised table (the Goldberg tables and their levels, the
    exp/log BCH series, F0, oracle tables when loaded, the Bernoulli numbers,
    ...); mainly for cold-start timing and memory tests.  The lru caches are
    found in the loaded kvlie modules, so a new cache needs no registration here."""
    for name, module in list(sys.modules.items()):
        if name.startswith("kvlie."):
            for fn in vars(module).values():
                if hasattr(fn, "cache_clear") and getattr(fn, "__module__", None) == name:
                    fn.cache_clear()
