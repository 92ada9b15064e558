import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from kvlie.algebra import (
    XY,
    NCPoly,
    bracket,
    concat,
    letter_part,
    parse_poly,
)
from kvlie.idempotents import (
    bch_component,
    dynkin,
    kernel_generator,
    patras_reutenauer_generator,
    psi,
)
from kvlie.lyndon import is_lie_element, lyndon_words, standard_bracketing
from kvlie.oracles import (
    coshuffle,
    dynkin_kernel_basis,
    dynkin_via_descents,
    eulerian,
    eulerian_via_convolution,
    kernel_generator_explicit,
)
from kvlie.permutations import sn_with_descents
from kvlie.scalars import witt_dimension

X = NCPoly.letter(XY, "x")
Y = NCPoly.letter(XY, "y")


def all_words(max_degree, min_degree=1):
    for d in range(min_degree, max_degree + 1):
        yield from product(range(2), repeat=d)


def power_word(i, j):
    return (0,) * i + (1,) * j


def test_dynkin_examples():
    assert dynkin(X) == X
    assert dynkin(parse_poly(XY, "xy")) == parse_poly(XY, "1/2*xy - 1/2*yx")
    assert dynkin(parse_poly(XY, "xyx")) == parse_poly(XY, "2/3*xyx - 1/3*xxy - 1/3*yxx")
    assert not dynkin(NCPoly.unit(XY))


def test_dynkin_two_routes_agree():
    for wt in all_words(7):
        p = NCPoly.from_word(XY, wt)
        assert dynkin(p) == dynkin_via_descents(p), wt


def test_dynkin_is_idempotent():
    for wt in all_words(6):
        p = NCPoly.from_word(XY, wt)
        assert dynkin(dynkin(p)) == dynkin(p)


def test_dynkin_recursion():
    # gamma(z q) = ((n-1)/n) [z, gamma(q)] for a letter z and a degree-(n-1) word q
    for wt in all_words(5):
        q = NCPoly.from_word(XY, wt)
        n = len(wt) + 1
        for sym in ("x", "y"):
            z = NCPoly.letter(XY, sym)
            lhs = dynkin(concat(z, q))
            rhs = bracket(z, dynkin(q)).scaled(Fraction(n - 1, n))
            assert lhs == rhs


def test_eulerian_examples():
    assert eulerian(X) == X
    assert eulerian(parse_poly(XY, "xy")) == parse_poly(XY, "1/2*xy - 1/2*yx")
    assert not eulerian(NCPoly.unit(XY))
    assert eulerian_via_convolution(parse_poly(XY, "xy")) == parse_poly(
        XY, "1/2*xy - 1/2*yx"
    )
    assert not eulerian_via_convolution(NCPoly.unit(XY))


def test_eulerian_equals_convolution():
    for wt in all_words(6):
        p = NCPoly.from_word(XY, wt)
        assert eulerian(p) == eulerian_via_convolution(p), wt


def bidegree_part(p, i, j):
    return NCPoly(XY, {w: c for w, c in p.terms.items() if w.count(0) == i and w.count(1) == j})


def test_eulerian_power_word_route():
    # e(x^i y^j) is i! j! times the bidegree-(i, j) part of Z_{i+j}
    for n in range(1, 9):
        for i in range(n + 1):
            j = n - i
            fast = bidegree_part(bch_component(n), i, j).scaled(factorial(i) * factorial(j))
            slow = eulerian(NCPoly.from_word(XY, power_word(i, j)))
            assert fast == slow, (i, j)


def test_eulerian_idempotent_and_kills_pure_powers():
    rng = random.Random(20)
    for wt in all_words(5):
        p = NCPoly.from_word(XY, wt)
        assert eulerian(eulerian(p)) == eulerian(p)
    for _ in range(10):
        terms = {
            tuple(rng.randrange(2) for _ in range(rng.randint(1, 5))): Fraction(
                rng.randint(-3, 3)
            )
            for _ in range(4)
        }
        p = NCPoly(XY, terms)
        assert eulerian(eulerian(p)) == eulerian(p)
    for n in range(2, 8):
        assert not eulerian(NCPoly.from_word(XY, (0,) * n))
        assert not eulerian(NCPoly.from_word(XY, (1,) * n))


def test_friedrichs_criterion():
    # gamma(p) = p <=> p primitive under the co-shuffle <=> p has Lie coordinates
    rng = random.Random(21)
    samples = []
    for d in range(1, 6):
        wt = tuple(rng.randrange(2) for _ in range(d))
        samples.append(dynkin(NCPoly.from_word(XY, wt)))  # Lie by construction
        samples.append(NCPoly.from_word(XY, wt))  # generally not
    samples.append(parse_poly(XY, "xy + yx"))
    for p in samples:
        if not p:
            continue
        fixed = dynkin(p) == p
        delta = coshuffle(p)
        primitive_expected = {}
        for word, coeff in p.terms.items():
            primitive_expected[((), word)] = coeff
            primitive_expected[(word, ())] = (
                primitive_expected.get((word, ()), 0) + coeff
            )
        primitive = delta.terms == {k: v for k, v in primitive_expected.items() if v}
        assert fixed == primitive == is_lie_element(p)


def test_eulerian_reversal_symmetry():
    # e_n = (-1)^(n+1) e_n o reversal
    for wt in all_words(6):
        n = len(wt)
        p = NCPoly.from_word(XY, wt)
        reversed_word = NCPoly.from_word(XY, wt[::-1])
        assert eulerian(p) == eulerian(reversed_word).scaled((-1) ** (n + 1))


def test_x_part_mirror_symmetry():
    # the x-part of e_n on x^i y^j equals the y-part of e_n on the mirrored
    # power word x^j y^i, carried across by the swap-negate substitution
    swap_neg = {"x": "-y", "y": "-x"}
    for n in range(2, 7):
        for i in range(1, n):
            j = n - i
            left = letter_part(eulerian(NCPoly.from_word(XY, power_word(i, j))), "x")
            mirrored_y_part = letter_part(
                eulerian(NCPoly.from_word(XY, power_word(j, i))), "y"
            )
            from kvlie.algebra import substitute

            assert left == substitute(mirrored_y_part, swap_neg), (i, j)


def test_x_part_restricted_permutation_sum():
    # the x-part of e_n on a power word is the sum over permutations that put
    # an x up front, i.e. sigma(1) <= i, with the leading position stripped
    for n in range(2, 6):
        for i in range(1, n):
            j = n - i
            w = power_word(i, j)
            expected = letter_part(eulerian(NCPoly.from_word(XY, w)), "x")
            acc = {}
            for images, d in sn_with_descents(n):
                if images[0] > i:
                    continue
                permuted = tuple(w[s - 1] for s in images[1:])
                c = Fraction((-1) ** d, n * comb(n - 1, d))
                acc[permuted] = acc.get(permuted, 0) + c
            assert NCPoly(XY, acc) == expected, (i, j)
            # and the projected form with gamma applied to both sides
            gacc = NCPoly.zero(XY)
            for word, coeff in acc.items():
                gacc = gacc + dynkin(NCPoly.from_word(XY, word)).scaled(coeff)
            assert gacc == dynkin(expected)


def test_kernel_generator():
    assert not kernel_generator(X)
    assert kernel_generator(parse_poly(XY, "xy")) == parse_poly(XY, "1/2*xy + 1/2*yx")
    for wt in all_words(6):
        gen = kernel_generator(NCPoly.from_word(XY, wt))
        assert not dynkin(gen)


def test_kernel_generator_explicit_form():
    rng = random.Random(22)
    for d in range(2, 7):
        words = list(product(range(2), repeat=d))
        rng.shuffle(words)
        for wt in words[:10]:
            scaled = kernel_generator(NCPoly.from_word(XY, wt)).scaled(d)
            explicit = kernel_generator_explicit(XY, wt)
            assert scaled == explicit, wt
            assert not dynkin(explicit)
    with pytest.raises(ValueError):
        kernel_generator_explicit(XY, (0,))


def test_patras_reutenauer_generator():
    assert patras_reutenauer_generator(X) == parse_poly(XY, "xx")
    assert not dynkin(parse_poly(XY, "xx"))
    assert not dynkin(patras_reutenauer_generator(Y))
    gen = patras_reutenauer_generator(parse_poly(XY, "xy"))
    assert gen == concat(parse_poly(XY, "1/2*xy - 1/2*yx"), parse_poly(XY, "xy"))
    assert not dynkin(gen)
    rng = random.Random(23)
    for _ in range(10):
        d = rng.randint(1, 3)
        terms = {
            tuple(rng.randrange(2) for _ in range(d)): Fraction(rng.randint(-3, 3))
            for _ in range(3)
        }
        p = NCPoly(XY, terms)
        if p:
            assert not dynkin(patras_reutenauer_generator(p))
    # only homogeneous inputs stay inside the graded kernel
    with pytest.raises(ValueError):
        patras_reutenauer_generator(parse_poly(XY, "x + xy"))


def test_kernel_basis_dimension():
    for n in range(1, 6):
        basis = dynkin_kernel_basis(XY, n)
        assert len(basis) == 2**n - witt_dimension(2, n)
        for p in basis:
            assert not dynkin(p)


def test_psi():
    assert psi(parse_poly(XY, "xy"), "x") == Y.scaled(Fraction(1, 2))
    assert not psi(parse_poly(XY, "yy"), "x")
    # any Lie element maps to zero
    for d in range(1, 6):
        for lw in lyndon_words(XY, d):
            assert not psi(standard_bracketing(XY, lw), "x")
            assert not psi(standard_bracketing(XY, lw), "y")
    # images are Lie elements
    rng = random.Random(24)
    for _ in range(10):
        terms = {
            tuple(rng.randrange(2) for _ in range(rng.randint(1, 5))): Fraction(
                rng.randint(-3, 3)
            )
            for _ in range(4)
        }
        p = NCPoly(XY, terms)
        assert is_lie_element(psi(p, "x"))
        assert is_lie_element(psi(p, "y"))
