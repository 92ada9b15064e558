"""The integer word kernels against their oracles, on whole polynomials.

Single-word tests cannot see a bug in how the production kernels group
words (by degree, by leading letter, by common denominator), so these tests
draw dense polynomials of mixed degree with mixed denominators.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvlie import idempotents
from kvlie.algebra import XY, Alphabet, NCPoly, default_alphabet, dense, from_dense, letter_part
from kvlie.algebra import parse_poly
from kvlie.idempotents import NotLieElementError, _nest, bch_component, dynkin
from kvlie.idempotents import kernel_generator
from kvlie.idempotents import psi
from kvlie.kv import _certify_lie
from kvlie.lyndon import (
    from_lie_coordinates,
    is_lie_element,
    is_lyndon,
    standard_bracketing,
    to_lie_coordinates,
)
from kvlie.oracles import dynkin_via_descents
from kvlie.series import GradedSeries

COEFFS = st.builds(
    Fraction, st.integers(-30, 30).filter(bool), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12, 35])
)


@st.composite
def polynomials(draw, max_degree=8, degrees=None, sizes=(2, 3)):
    """A polynomial over 2 or 3 letters (or any of ``sizes``): a few degrees,
    each with up to 40 of its words, so that words share prefixes."""
    k = draw(st.sampled_from(sizes))
    if degrees is None:
        degrees = draw(st.lists(st.integers(0, max_degree), min_size=1, max_size=3, unique=True))
    terms = {}
    for d in degrees:
        words = st.tuples(*[st.integers(0, k - 1)] * d)
        terms.update(draw(st.dictionaries(words, COEFFS, min_size=1, max_size=min(k**d, 40))))
    return NCPoly(default_alphabet(k), terms)


def eliminate_by_polynomials(p: NCPoly) -> NCPoly:
    """Reference Lyndon elimination on whole polynomials: the residual left at
    the first non-Lyndon least word (zero for a Lie element)."""
    residual = p
    while residual:
        word = min(residual.terms)
        if not is_lyndon(word):
            return residual
        residual = residual - standard_bracketing(p.alphabet, word).scaled(residual.terms[word])
    return residual


def passes_fixed_point_test(p: NCPoly) -> bool:
    """Production certification r(p_n) = n p_n on every component of p; a
    failure must carry the residual p_n - gamma(p_n)."""
    try:
        _certify_lie(GradedSeries.from_poly(p, max(p.degrees(), default=0)))
    except NotLieElementError as err:
        assert err.residual in [kernel_generator(p.homogeneous_component(d)) for d in p.degrees()]
        return False
    return True


@settings(deadline=None, max_examples=150)
@given(polynomials())
def test_dynkin_equals_descent_oracle(p):
    assert dynkin(p) == dynkin_via_descents(p)


@settings(deadline=None, max_examples=50)
@given(polynomials(max_degree=6, sizes=(14,)))
def test_dynkin_equals_descent_oracle_on_fourteen_letters(p):
    # letter indices up to 13 take four bits in a packed word
    assert dynkin(p) == dynkin_via_descents(p)


@st.composite
def near_the_dense_rule(draw):
    """A polynomial over 2 to 4 letters with one to three components, each
    within two words of k^d / 2^d on either side: sparse over four letters,
    all or most of the words over two."""
    k = draw(st.sampled_from([2, 3, 4]))
    terms = {}
    for d in draw(st.lists(st.integers(1, 7 - k // 2), min_size=1, max_size=3, unique=True)):
        threshold = -(-(k**d) // 2**d)
        size = draw(st.integers(max(threshold - 2, 1), min(threshold + 2, k**d)))
        words = st.sets(st.tuples(*[st.integers(0, k - 1)] * d), min_size=size, max_size=size)
        for w in draw(words.filter(lambda ws: any(k - 1 in w for w in ws))):
            terms[w] = draw(COEFFS)
    return NCPoly(default_alphabet(k), terms)


@settings(deadline=None, max_examples=150)
@given(near_the_dense_rule())
def test_dynkin_equals_descent_oracle_on_both_sides_of_the_dense_rule(p):
    q = dynkin(p)
    assert q == dynkin_via_descents(p)
    assert passes_fixed_point_test(q)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dense_index_is_the_base_k_value_of_the_word(k):
    alphabet = default_alphabet(k)
    for n in range(5):
        words = list(product(range(k), repeat=n))
        assert [sum(a * k ** (n - 1 - i) for i, a in enumerate(w)) for w in words] == list(range(k**n))
        numerators = {w: i - 3 for i, w in enumerate(words) if i != 3 and i % 4}
        vector = dense(numerators, n, range(k))
        assert vector == [i - 3 if i % 4 else 0 for i in range(k**n)]
        assert from_dense(vector, n, range(k)) == numerators
        # the index order is the canonical order of the printed forms
        texts = [t for t, _, _ in NCPoly._raw(alphabet, numerators).reduced_terms()]
        assert list(map(alphabet.word_text, numerators)) == texts


def test_dense_index_over_the_letters_present():
    # letters (1, 4, 6) are the digits 0, 1, 2 of a base-3 index
    letters = (1, 4, 6)
    numerators = {(4, 1): 5, (6, 6): -2, (1, 6): 7}
    vector = dense(numerators, 2, letters)
    assert vector == [0, 0, 7, 5, 0, 0, 0, 0, -2]
    assert from_dense(vector, 2, letters) == numerators


def nest_by_index_maps(vector, k):
    """(level n-1, level n) of r with one source index map per level: the
    perfect shuffle of each block of k^j spelled out word by word."""
    size = len(vector)
    previous = current = vector
    width = k
    while width < size:
        step, width = width, width * k
        block = [a * step + v for v in range(step) for a in range(k)]
        source = [start + s for start in range(0, size, width) for s in block]
        previous, current = current, [c - current[s] for c, s in zip(current, source)]
    return previous, current


@pytest.mark.parametrize("k, top", [(2, 13), (3, 8), (4, 6)])
def test_nest_slices_equal_the_index_maps(k, top):
    # early levels have more blocks than words v, late levels fewer: every
    # degree from 1 up crosses both kinds of slice copy
    rng = random.Random(k)
    for n in range(1, top + 1):
        vector = [rng.randint(-9, 9) for _ in range(k**n)]
        assert _nest(vector, k) == nest_by_index_maps(vector, k)


def test_packing_width_follows_the_largest_letter():
    # letter index 16 needs five bits: a fixed four-bit field would carry it
    # into the neighbouring letter
    alphabet = Alphabet("abcdefghijklmnopq")
    p = parse_poly(alphabet, "qaq - 2/3*aqpq + 1/5*qqba + pqqp - 7*cqaq + qa")
    assert dynkin(p) == dynkin_via_descents(p)
    assert passes_fixed_point_test(dynkin(p)) and not passes_fixed_point_test(p)


def test_dynkin_equals_descent_oracle_on_a_series_inputs():
    # every polynomial the particular solution at degree 10 (the former
    # a_series(10)) hands to r: (Z_n)_x with n <= 11
    for n in range(2, 12):
        p = letter_part(bch_component(n), "x")
        assert dynkin(p) == dynkin_via_descents(p), n
    # and the y-leading shares y (Z_n)_y that the split oracle's right-hand
    # side hands to dynkin, which ties that chain to the descent classes
    y = NCPoly.letter(XY, "y")
    for n in range(2, 10):
        p = y * letter_part(bch_component(n), "y")
        assert dynkin(p) == dynkin_via_descents(p), n


def homogeneous(max_degree):
    return st.integers(1, max_degree).flatmap(lambda d: polynomials(degrees=[d]))


@settings(deadline=None, max_examples=100)
@given(homogeneous(7))
def test_lie_coordinates_round_trip_on_random_lie_elements(p):
    q = dynkin(p)
    coords = to_lie_coordinates(q)
    assert all(is_lyndon(w) for w in coords.coords)
    assert from_lie_coordinates(q.alphabet, coords) == q


@settings(deadline=None, max_examples=100)
@given(homogeneous(6))
def test_elimination_matches_reference_on_random_input(p):
    expected = eliminate_by_polynomials(p)
    if expected:
        with pytest.raises(NotLieElementError) as err:
            to_lie_coordinates(p)
        assert err.value.residual == expected
    else:
        assert from_lie_coordinates(p.alphabet, to_lie_coordinates(p)) == p


@pytest.mark.parametrize(
    "letters, text",
    [("xy", "xy + yx"), ("xy", "xxy"), ("xy", "yx"), ("xy", "1/2*xy + 1/3*yx"),
     ("xy", "2/3*xyy - 1/5*yxy + 7/4*yyx"), ("xy", "xy - yx + xxy"),
     ("xyz", "3/7*xzy"), ("xyz", "xyz - 1/2*zyx + 5/6*yzx")],
)
def test_non_lie_residual_equals_reference(letters, text):
    p = parse_poly(Alphabet(letters), text)
    assert p != dynkin(p)  # not a Lie element
    for d in p.degrees():
        component = p.homogeneous_component(d)
        expected = eliminate_by_polynomials(component)
        if not expected:
            continue
        with pytest.raises(NotLieElementError) as err:
            to_lie_coordinates(component)
        assert err.value.residual == expected


@settings(deadline=None, max_examples=100)
@given(polynomials(max_degree=7))
def test_dynkin_is_idempotent(p):
    q = dynkin(p)
    assert dynkin(q) == q


@settings(deadline=None, max_examples=100)
@given(homogeneous(6))
def test_fixed_point_test_agrees_with_elimination_oracle(p):
    # a gamma image is a Lie element; a random polynomial almost never is
    lie = dynkin(p)
    assert passes_fixed_point_test(lie) and is_lie_element(lie)
    assert passes_fixed_point_test(p) == is_lie_element(p)


@settings(deadline=None, max_examples=100)
@given(polynomials(max_degree=7))
def test_psi_images_pass_the_fixed_point_test(p):
    for letter in p.alphabet.letters:
        assert passes_fixed_point_test(psi(p, letter))


@pytest.mark.parametrize("k, top", [(2, 12), (3, 7)])
def test_elimination_oracle_accepts_the_certified_bch_components(k, top):
    # the degrees that production certifies in the benchmark workloads
    for n in range(1, top + 1):
        to_lie_coordinates(bch_component(n, k))


def refuse_packed_r(terms):
    raise AssertionError("r ran on a word dict")


def count_nests(monkeypatch) -> list:
    calls, real = [], idempotents._nest
    monkeypatch.setattr(idempotents, "_nest", lambda vector, k: calls.append(len(vector)) or real(vector, k))
    return calls


@pytest.mark.parametrize("k, n", [(2, 2), (2, 9), (3, 6), (4, 5)])
def test_lie_level_mirrors_the_bch_blocks(monkeypatch, k, n):
    # Z_n is (-1)^(n+1) times its letter reversal: r runs on the blocks
    # z < k/2 and the middle one only, and the level is that of r on the
    # whole vector
    from kvlie.idempotents import _goldberg, _lie_level

    vector, scale, level = _goldberg(n, k)
    calls = count_nests(monkeypatch)
    assert _lie_level(default_alphabet(k), range(k), n, (vector, scale)) == level
    assert level == tuple(_nest(vector, k)[0])
    assert calls == [k ** (n - 1)] * ((k + 1) // 2)


@pytest.mark.parametrize("letters, text", [("xy", "xxy - 2*xyx + yxx"), ("xyz", "xyz - xzy - yzx + zyx"),
                                           ("xy", "xxxy - 3*xxyx + 3*xyxx - yxxx")])
def test_lie_level_computes_every_block_without_the_mirror(monkeypatch, letters, text):
    # [x,[x,y]], [x,[y,z]] and [x,[x,[x,y]]] show no mirror relation between
    # their blocks, so each block is nested on its own
    from kvlie.idempotents import _lie_level

    p = parse_poly(Alphabet(letters), text)
    assert dynkin(p) == p
    n, s = max(p.degrees()), GradedSeries.from_poly(p, max(p.degrees()))
    k = len(s.letters)
    calls = count_nests(monkeypatch)
    assert _lie_level(p.alphabet, s.letters, n, s.dense[n]) == tuple(_nest(s.dense[n][0], k)[0])
    assert calls == [k ** (n - 1)] * k


@pytest.mark.parametrize("letters, text, nests", [("xy", "xxy + yyx", 1), ("xy", "xx - yy", 1),
                                                  ("xyz", "xy - zy", 2), ("xy", "3/2*xyxy - 3/2*yxyx", 1)])
def test_lie_level_mirrored_blocks_still_certify(letters, text, nests, monkeypatch):
    # the y block mirrors the x block, so r(p_y) is read from r(p_x); the
    # check r(p) = n p on the whole vector still refuses p with p - gamma(p)
    from kvlie.idempotents import _lie_level

    p = parse_poly(Alphabet(letters), text)
    n, s = max(p.degrees()), GradedSeries.from_poly(p, max(p.degrees()))
    calls = count_nests(monkeypatch)
    with pytest.raises(NotLieElementError) as err:
        _lie_level(p.alphabet, s.letters, n, s.dense[n])
    expected = kernel_generator(p)
    assert err.value.residual == expected and err.value.residual
    assert len(calls) == nests
    # the residual is read from the failing pass, mirrored blocks included:
    # r on word dicts never runs
    monkeypatch.setattr(idempotents, "_nest_packed", refuse_packed_r)
    with pytest.raises(NotLieElementError) as err:
        _lie_level(p.alphabet, s.letters, n, s.dense[n])
    assert err.value.residual == expected
