"""Constructions and verifiers for the first Kashiwara-Vergne equation.

Everything specific to the equation

    x + y - log(e^y e^x) = (1 - e^(-ad x)) F(x,y) + (e^(ad y) - 1) G(x,y)

lives here: the Baker-Campbell-Hausdorff series (built from the Eulerian
idempotent on power words, with the S_n permutation sum and exp/log as
oracles), its split into the Dynkin images of the x-leading and y-leading
monomials, the operator calculus E(z) = exp(ad z) - 1 and its Bernoulli
inverse, the explicit particular solution, the parameterisation of all
solutions by the kernel of the Dynkin idempotent, and the multilinear
generalisation.

Argument-order discipline: a BCH series carries the tuple of variables it
was built in, and any reordered evaluation (such as the recurring (y, x)
order) is produced by letter substitution from the stored series, never by
re-derivation.  Identity checks return full graded defect series so that a
failure is diagnosable term by term.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _words_of
from math import prod

from .algebra import (
    XY,
    NCPoly,
    Word,
    bracket,
    concat,
    default_alphabet,
    integer_form,
    letter_part,
    substitute,
    sum_integer_forms,
)
from .idempotents import dynkin, dynkin_kernel_basis, eulerian_power_word, psi
from .linalg import nullspace_dimension, rank, solve_affine
from .lyndon import lyndon_words, standard_bracketing, to_lie_coordinates
from .scalars import bernoulli, factorial
from .series import GradedSeries, _ad_power_sum

SWAP = {"x": "y", "y": "x"}
NEGATE_SWAP = {"x": "-y", "y": "-x"}
NEGATE = {"x": "-x", "y": "-y"}
X = NCPoly.letter(XY, "x")
Y = NCPoly.letter(XY, "y")
MINUS_X = X.scaled(-1)


# -- operators: weighted sums sum_k w_k ad(z)^k on the integer series kernel --


def op_ad(base: NCPoly, s: GradedSeries) -> GradedSeries:
    """ad(base) applied componentwise; base must be homogeneous of degree 1."""
    return _ad_power_sum(base, s, (0, 1))


def op_exp_ad_minus_one(base: NCPoly, s: GradedSeries) -> GradedSeries:
    """E(base) = exp(ad base) - 1, truncated at the series order."""
    return _ad_power_sum(base, s, [0] + [Fraction(1, factorial(k)) for k in range(1, s.order + 1)])


def op_bernoulli(base: NCPoly, s: GradedSeries) -> GradedSeries:
    """Ber(base) = sum_k B_k ad(base)^k / k!, the inverse of E up to ad."""
    return _ad_power_sum(base, s, [bernoulli(k) / factorial(k) for k in range(s.order + 1)])


# -- Baker-Campbell-Hausdorff series -----------------------------------------


@dataclass(frozen=True)
class BchSeries:
    """A BCH series together with the variable order it was built in."""

    series: GradedSeries
    variables: tuple[str, ...]

    @property
    def order(self) -> int:
        return self.series.order

    def component(self, degree: int) -> NCPoly:
        return self.series.component(degree)

    def reversed_arguments(self) -> GradedSeries:
        """The series evaluated at the reversed variable tuple, by substitution."""
        k = len(self.variables)
        images = {self.variables[i]: self.variables[k - 1 - i] for i in range(k)}
        return self.series.substitute(images)

    def tail(self, start: int = 2) -> GradedSeries:
        parts = [
            p if d >= start else NCPoly.zero(self.series.alphabet)
            for d, p in enumerate(self.series.parts)
        ]
        return GradedSeries(self.series.alphabet, self.order, parts)


def _certify_lie(series: GradedSeries) -> None:
    for d in range(1, series.order + 1):
        to_lie_coordinates(series.parts[d])


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _bch_from_power_words(order: int, k: int, power_word_value) -> BchSeries:
    """Component m = sum over (i_1, ..., i_k) summing to m of
    e(x_1^i_1 ... x_k^i_k) / (i_1! ... i_k!), with e on each power word given
    by ``power_word_value(alphabet, counts)``.

    Pure powers beyond degree 1 are asserted to vanish under e, and every
    component is certified to be a Lie element.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    alphabet = default_alphabet(k)
    parts = [NCPoly.zero(alphabet)]
    for m in range(1, order + 1):
        items = []
        for counts in _compositions(m, k):
            value = power_word_value(alphabet, counts)
            if m >= 2 and sum(1 for c in counts if c) == 1 and value:
                raise AssertionError(f"e on the pure power word {counts} did not vanish")
            weight = Fraction(1, prod(factorial(c) for c in counts))
            items.append((weight, *integer_form(value.terms)))
        parts.append(sum_integer_forms(alphabet, items))
    series = GradedSeries._raw(alphabet, order, parts)
    _certify_lie(series)
    return BchSeries(series, alphabet.letters)


@lru_cache(maxsize=None)
def bch_eulerian(order: int, k: int = 2) -> BchSeries:
    """BCH series from the Eulerian idempotent on power words, for any k.

    This is the production construction: e on each power word goes through
    the run-length convolution route (:func:`eulerian_power_word`), which
    never enumerates a symmetric group.
    """
    return _bch_from_power_words(
        order,
        k,
        lambda alphabet, counts: eulerian_power_word(
            alphabet=alphabet, segments=tuple(enumerate(counts))
        ),
    )


def bch_permutation_oracle(order: int) -> BchSeries:
    """Oracle BCH series in two variables: the same power-word sum, with e on
    each power word evaluated through the full S_n permutation sum.

    Factorial in the degree; tests play it against :func:`bch_eulerian` and
    :func:`bch_oracle`, and no production path calls it.
    """
    from .idempotents import eulerian

    return _bch_from_power_words(
        order,
        2,
        lambda alphabet, counts: eulerian(
            NCPoly.from_word(alphabet, (0,) * counts[0] + (1,) * counts[1])
        ),
    )


@lru_cache(maxsize=None)
def bch_oracle(order: int, k: int = 2) -> BchSeries:
    """Ground-truth BCH series: log of the ordered product of exponentials."""
    from .series import series_exp, series_log

    if order < 1:
        raise ValueError("order must be >= 1")
    alphabet = default_alphabet(k)
    product = GradedSeries.one(alphabet, order)
    for letter in alphabet.letters:
        product = product * series_exp(GradedSeries.generator(alphabet, letter, order))
    series = series_log(product)
    _certify_lie(series)
    return BchSeries(series, alphabet.letters)


def multilinear_bch(k: int, order: int, method: str = "eulerian") -> BchSeries:
    """BCH series of k variables; "eulerian" or "oracle" construction."""
    if k < 2:
        raise ValueError("multilinear BCH needs at least two variables")
    if method == "eulerian":
        return bch_eulerian(order, k)
    if method == "oracle":
        return bch_oracle(order, k)
    raise ValueError(f"unknown method {method!r}")


# -- the split of the BCH series ----------------------------------------------


def phi_split(phi: BchSeries) -> tuple[GradedSeries, GradedSeries]:
    """Dynkin images of the leading-letter halves of the BCH tail.

    Returns (plus, minus) with plus_n = gamma(x * (Phi_n)_x) and
    minus_n = gamma(y * (Phi_n)_y) for n >= 2; their sum restores Phi_n.
    """
    alphabet = phi.series.alphabet
    if alphabet.size != 2:
        raise ValueError("the split is defined for two variables")
    x_sym, y_sym = alphabet.letters
    x = NCPoly.letter(alphabet, x_sym)
    y = NCPoly.letter(alphabet, y_sym)
    plus_parts = [NCPoly.zero(alphabet), NCPoly.zero(alphabet)]
    minus_parts = [NCPoly.zero(alphabet), NCPoly.zero(alphabet)]
    for n in range(2, phi.order + 1):
        comp = phi.component(n)
        if dynkin(comp) != comp:
            raise ValueError(f"BCH component {n} is not a Lie element")
        plus_parts.append(dynkin(concat(x, letter_part(comp, x_sym))))
        minus_parts.append(dynkin(concat(y, letter_part(comp, y_sym))))
    order = phi.order
    return (
        GradedSeries(alphabet, order, plus_parts[: order + 1]),
        GradedSeries(alphabet, order, minus_parts[: order + 1]),
    )


# -- the particular solution ----------------------------------------------------


@lru_cache(maxsize=None)
def a_series(order: int) -> GradedSeries:
    """The Lie series a(x, y) feeding the particular solution.

    Degree n - 1 component: ((n-1)/n) * sum_{i+j=n, i,j>=1}
    gamma((e_n(x^i y^j))_x) / (i! j!).  The degree bookkeeping is pinned by
    the split equation: E(-x) applied to the resulting F reproduces the
    y-leading Dynkin half of the BCH tail exactly (see verify_split), and
    the linear-solve oracle recovers the same components degree by degree.
    """
    alphabet = XY
    parts = [NCPoly.zero(alphabet)]
    for d in range(1, order + 1):
        n = d + 1
        items = []
        for i in range(1, n):
            j = n - i
            e_val = eulerian_power_word(alphabet=alphabet, segments=((0, i), (1, j)))
            weight = Fraction(n - 1, n * factorial(i) * factorial(j))
            items.append((weight, *integer_form(dynkin(letter_part(e_val, "x")).terms)))
        parts.append(sum_integer_forms(alphabet, items))
    series = GradedSeries._raw(alphabet, order, parts)
    _certify_lie(series)
    return series


@lru_cache(maxsize=None)
def f0(order: int) -> GradedSeries:
    """The particular solution F0(x, y) = -Ber(-x) applied to a(-x, -y)."""
    s = a_series(order).substitute(NEGATE)
    return -op_bernoulli(MINUS_X, s)


@lru_cache(maxsize=None)
def g0(order: int) -> GradedSeries:
    """G0(x, y) = F0(-y, -x)."""
    return f0(order).substitute(NEGATE_SWAP)


@dataclass(frozen=True)
class KvSolutionPair:
    """A candidate (F, G) pair for the first Kashiwara-Vergne equation."""

    F: GradedSeries
    G: GradedSeries

    @property
    def order(self) -> int:
        return self.F.order


def particular_solution(order: int) -> KvSolutionPair:
    return KvSolutionPair(f0(order), g0(order))


# -- verifiers -------------------------------------------------------------------


def _checked_order(order: int | None, available: int, what: str, phi: BchSeries | None = None) -> int:
    """The order to verify through: ``order``, or ``available`` when None.

    Truncation is never mistaken for a defect: an order above what the
    given series carry, or a ``phi`` of lower order, raises ValueError.
    """
    order = available if order is None else order
    if order > available:
        raise ValueError(f"order {order} is above the order {available} of the {what}")
    if phi is not None and phi.order < order:
        raise ValueError(
            f"the BCH series has order {phi.order}, below the requested order {order}"
        )
    return order


def verify_split(F: GradedSeries, order: int | None = None, phi: BchSeries | None = None) -> GradedSeries:
    """Defect of the split equation: Phi^-(y, x) - E(-x) F."""
    order = _checked_order(order, F.order, "series F", phi)
    phi = bch_eulerian(order) if phi is None else phi
    _, minus = phi_split(phi)
    target = minus.substitute(SWAP)
    return target - op_exp_ad_minus_one(MINUS_X, F.truncate(order))


def verify_kv1(pair: KvSolutionPair, order: int | None = None, phi: BchSeries | None = None) -> GradedSeries:
    """Defect of the rewritten first equation:

    sum_{n>=2} Phi_n(y, x) - E(-x) F + E(y) G; identically zero exactly for
    solutions of the Kashiwara-Vergne first equation.
    """
    order = _checked_order(order, min(pair.F.order, pair.G.order), "pair (F, G)", phi)
    phi = bch_eulerian(order) if phi is None else phi
    tail = phi.tail().substitute(SWAP)
    F = pair.F.truncate(order)
    G = pair.G.truncate(order)
    return tail - op_exp_ad_minus_one(MINUS_X, F) + op_exp_ad_minus_one(Y, G)


def verify_homogeneous(pair: KvSolutionPair, order: int | None = None) -> GradedSeries:
    """Defect of the homogeneous equation E(-x) F = E(y) G."""
    order = _checked_order(order, min(pair.F.order, pair.G.order), "pair (F, G)")
    return op_exp_ad_minus_one(MINUS_X, pair.F.truncate(order)) - op_exp_ad_minus_one(
        Y, pair.G.truncate(order)
    )


# -- symmetrisation and the solution space ----------------------------------------


def symmetrize(pair: KvSolutionPair, lam: Fraction = Fraction(0)) -> KvSolutionPair:
    """Symmetrise a solution:

    F1 = (F + G(-y,-x))/2 + lam*x,  G1 = (G + F(-y,-x))/2 - lam*y,
    which satisfies G1(x, y) = F1(-y, -x).
    """
    if not verify_kv1(pair).is_zero():
        raise ValueError("input pair is not a solution of the first equation")
    order = pair.order
    half = Fraction(1, 2)
    x_series = GradedSeries.generator(XY, "x", order)
    y_series = GradedSeries.generator(XY, "y", order)
    F1 = (pair.F + pair.G.substitute(NEGATE_SWAP)).scaled(half) + x_series.scaled(lam)
    G1 = (pair.G + pair.F.substitute(NEGATE_SWAP)).scaled(half) - y_series.scaled(lam)
    return KvSolutionPair(F1, G1)


def homogeneous_solution(
    p: NCPoly,
    lambda1: Fraction = Fraction(0),
    lambda2: Fraction = Fraction(0),
    order: int = 8,
) -> KvSolutionPair:
    """The homogeneous-equation solution attached to a kernel element p:

    F = Ber(-x) gamma(p_x) + lambda1 * x,  G = Ber(y) gamma(p_y) + lambda2 * y.

    Requires gamma(p) = 0; every solution of E(-x)F = E(y)G arises this way.
    """
    if dynkin(p):
        raise ValueError("polynomial is not in the kernel of the Dynkin idempotent")
    P = GradedSeries.from_poly(dynkin(letter_part(p, "x")), order)
    Q = GradedSeries.from_poly(dynkin(letter_part(p, "y")), order)
    F = op_bernoulli(MINUS_X, P) + GradedSeries.generator(XY, "x", order).scaled(lambda1)
    G = op_bernoulli(Y, Q) + GradedSeries.generator(XY, "y", order).scaled(lambda2)
    return KvSolutionPair(F, G)


def general_solution(
    p: NCPoly,
    lambda1: Fraction = Fraction(0),
    lambda2: Fraction = Fraction(0),
    order: int = 8,
) -> KvSolutionPair:
    """The solution of the first equation attached to an arbitrary polynomial p:

    F = F0 + Ber(-x) Psi_x(p) + lambda1 * x,
    G = G0 + Ber(y)  Psi_y(p) + lambda2 * y.

    Psi projects p onto the kernel of the Dynkin idempotent first, so no
    precondition on p is needed; p = 0 returns the particular solution.
    """
    Px = GradedSeries.from_poly(psi(p, "x"), order)
    Py = GradedSeries.from_poly(psi(p, "y"), order)
    F = (
        f0(order)
        + op_bernoulli(MINUS_X, Px)
        + GradedSeries.generator(XY, "x", order).scaled(lambda1)
    )
    G = (
        g0(order)
        + op_bernoulli(Y, Py)
        + GradedSeries.generator(XY, "y", order).scaled(lambda2)
    )
    return KvSolutionPair(F, G)


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


# -- linear-solve oracle for the split equation -------------------------------------


def _ad_matrix_columns(base: NCPoly, degree: int) -> tuple[list[Word], list[NCPoly]]:
    """Lyndon basis of the given degree and ad(base) of each bracketing."""
    basis_words = [lw.word for lw in lyndon_words(XY, degree)]
    images = [bracket(base, standard_bracketing(XY, w)) for w in basis_words]
    return basis_words, images


def solve_split_chain(max_degree: int, phi: BchSeries | None = None) -> GradedSeries:
    """Solve E(-x) F = Phi^-(y, x) degree by degree as exact linear systems.

    Independent oracle for the particular solution: at each degree the
    unknown component is found in Lyndon coordinates, taking the pure-x
    coordinate to be zero at degree 1 (the kernel of E(-x) there).
    Inconsistency of any system would falsify the image description of the
    operator and raises.
    """
    phi = bch_eulerian(max_degree + 1) if phi is None else phi
    if phi.order < max_degree + 1:
        raise ValueError("need the BCH series one degree beyond the solve target")
    _, minus = phi_split(phi)
    target = minus.substitute(SWAP)

    parts = [NCPoly.zero(XY)]
    for d in range(1, max_degree + 1):
        m = d + 1  # output degree of the constraint fixing component d
        rhs_poly = target.component(m)
        for k in range(2, m):
            lower = parts[m - k]
            if lower:
                term = lower
                for _ in range(k):
                    term = bracket(MINUS_X, term)
                rhs_poly = rhs_poly - term.scaled(Fraction(1, factorial(k)))
        basis_words, images = _ad_matrix_columns(MINUS_X, d)
        row_words = sorted(
            set().union(*[set(img.terms) for img in images], set(rhs_poly.terms))
        )
        matrix = [[img.coefficient(w) for img in images] for w in row_words]
        rhs = [rhs_poly.coefficient(w) for w in row_words]
        particular, null_basis = solve_affine(matrix, rhs)
        if d == 1:
            if len(null_basis) != 1:
                raise AssertionError("degree-1 split system should have a line of solutions")
            x_index = basis_words.index((0,))
            direction = null_basis[0]
            particular = [
                v - particular[x_index] / direction[x_index] * direction[i]
                for i, v in enumerate(particular)
            ]
        elif null_basis:
            raise AssertionError(f"split system at degree {d} is not determined")
        comp = NCPoly.zero(XY)
        for coeff, w in zip(particular, basis_words):
            if coeff:
                comp = comp + standard_bracketing(XY, w).scaled(coeff)
        parts.append(comp)
    return GradedSeries(XY, max_degree, parts)


def solve_split_linear(degree: int) -> NCPoly:
    """The unique degree-``degree`` component of the split-equation solution
    (zero pure-x coordinate at degree 1)."""
    return solve_split_chain(degree).component(degree)


# -- degree-wise dimension analyses ---------------------------------------------------


def operator_nullity(letter: str, degree: int, blocks: int = 2) -> int:
    """Nullity of E(letter) restricted to the degree-``degree`` Lie piece.

    The map is assembled in Lyndon coordinates against the word basis of the
    next ``blocks`` degrees; since the graded components of E must vanish
    independently, two blocks already determine the kernel exactly.
    """
    base = NCPoly.letter(XY, letter)
    basis_words = [lw.word for lw in lyndon_words(XY, degree)]
    columns = []
    for w in basis_words:
        series = GradedSeries.from_poly(standard_bracketing(XY, w), degree + blocks)
        image = op_exp_ad_minus_one(base, series)
        vec: list[Fraction] = []
        for m in range(degree + 1, degree + blocks + 1):
            comp = image.component(m)
            vec.extend(comp.coefficient(t) for t in _words_of(range(2), repeat=m))
        columns.append(vec)
    matrix = [[col[r] for col in columns] for r in range(len(columns[0]))]
    return nullspace_dimension(matrix)


def leading_pair_nullity(degree: int) -> int:
    """Dimension of {(P, Q) in Lie_n^2 : [x, P] + [y, Q] = 0} at n = degree."""
    basis_words = [lw.word for lw in lyndon_words(XY, degree)]
    columns = [bracket(X, standard_bracketing(XY, w)) for w in basis_words]
    columns += [bracket(Y, standard_bracketing(XY, w)) for w in basis_words]
    matrix = [
        [col.coefficient(t) for col in columns]
        for t in _words_of(range(2), repeat=degree + 1)
    ]
    return nullspace_dimension(matrix)


def kernel_parameterized_leading_dim(degree: int) -> int:
    """Rank of the leading pairs (gamma(p_x), gamma(p_y)) over a basis of the
    kernel of the Dynkin idempotent in degree ``degree`` + 1, plus the
    (lambda1 x, lambda2 y) line at degree 1."""
    basis_words = [lw.word for lw in lyndon_words(XY, degree)]
    vectors = []

    def coords(poly: NCPoly) -> list[Fraction]:
        lc = to_lie_coordinates(poly)
        return [lc.coords.get(w, Fraction(0)) for w in basis_words]

    for p in dynkin_kernel_basis(XY, degree + 1):
        P = dynkin(letter_part(p, "x"))
        Q = dynkin(letter_part(p, "y"))
        vectors.append(coords(P) + coords(Q))
    if degree == 1:
        zero = [Fraction(0)] * len(basis_words)
        vectors.append(coords(X) + zero)
        vectors.append(zero + coords(Y))
    return rank(vectors)


# -- multilinear version ---------------------------------------------------------------


def multilinear_f0(index: int, k: int, order: int, phi: BchSeries | None = None) -> GradedSeries:
    """The i-th component of the particular solution of the multilinear equation.

    With Phi taken in reversed variable order (matching log(e^{x_k} ... e^{x_1})),

        b_i = sum_{m>=2} ((m-1)/m) gamma((Phi_m(x_k..x_1))_{x_i}),
        F_{i,0} = (-1)^i Ber((-1)^i x_i) b_i,

    which solves E((-1)^i x_i) F_i = gamma(x_i (Phi_m(x_k..x_1))_{x_i}) summed
    over m, the x_i-leading share of the reversed BCH tail.
    """
    if not 1 <= index <= k:
        raise ValueError(f"variable index {index} out of range for {k} variables")
    phi = multilinear_bch(k, order + 1) if phi is None else phi
    if phi.order < order + 1:
        raise ValueError("need the BCH series one degree beyond the target order")
    alphabet = phi.series.alphabet
    letter = alphabet.letters[index - 1]
    reversed_phi = phi.reversed_arguments()
    parts = [NCPoly.zero(alphabet)]
    for d in range(1, order + 1):
        m = d + 1
        comp = dynkin(letter_part(reversed_phi.component(m), letter))
        parts.append(comp.scaled(Fraction(m - 1, m)))
    b = GradedSeries(alphabet, order, parts)
    sign = (-1) ** index
    base = NCPoly.letter(alphabet, letter).scaled(sign)
    return op_bernoulli(base, b).scaled(sign)


def multilinear_particular_solution(k: int, order: int) -> list[GradedSeries]:
    phi = multilinear_bch(k, order + 1)
    return [multilinear_f0(i, k, order, phi=phi) for i in range(1, k + 1)]


def clear_caches() -> None:
    """Drop every memoised table (word-level idempotent values, permutation
    tables, BCH series, the Bernoulli prefix, ...); mainly for cold-start
    timing and memory tests.  The lru caches are found in the loaded kvlie
    modules, so a new cache needs no registration here."""
    from . import scalars as _scalars

    with _scalars._bernoulli_lock:
        _scalars._bernoulli_values[:] = [Fraction(1)]
    for name, module in list(sys.modules.items()):
        if name.startswith("kvlie."):
            for fn in vars(module).values():
                if hasattr(fn, "cache_clear") and getattr(fn, "__module__", None) == name:
                    fn.cache_clear()


def verify_multilinear(
    solutions: list[GradedSeries], order: int | None = None, phi: BchSeries | None = None
) -> GradedSeries:
    """Defect of the multilinear first equation for a tuple (F_1, ..., F_k):

    sum_{m>=2} Phi_m(x_k, ..., x_1) - sum_i E((-1)^i x_i) F_i.
    """
    k = len(solutions)
    if k < 2:
        raise ValueError("need at least two solution components")
    order = _checked_order(order, min(F.order for F in solutions), "solution tuple", phi)
    phi = multilinear_bch(k, order) if phi is None else phi
    alphabet = phi.series.alphabet
    reversed_phi = phi.reversed_arguments()
    parts = [
        reversed_phi.component(m) if m >= 2 else NCPoly.zero(alphabet)
        for m in range(order + 1)
    ]
    defect = GradedSeries(alphabet, order, parts)
    for i, F in enumerate(solutions, start=1):
        sign = (-1) ** i
        base = NCPoly.letter(alphabet, alphabet.letters[i - 1]).scaled(sign)
        defect = defect - op_exp_ad_minus_one(base, F.truncate(order))
    return defect
