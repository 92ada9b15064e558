import random
from itertools import product

import pytest

from kvlie.algebra import XY, NCPoly, parse_poly
from kvlie.idempotents import NotLieElementError, dynkin
from kvlie.lyndon import (
    from_lie_coordinates,
    is_lie_element,
    is_lyndon,
    lyndon_words,
    standard_bracketing,
    to_lie_coordinates,
)
from kvlie.oracles import eulerian
from kvlie.scalars import witt_dimension


def brute_force_lyndon(k, n):
    """Oracle: a word is Lyndon iff it is strictly smaller than every proper suffix."""
    out = []
    for w in product(range(k), repeat=n):
        if all(w < w[i:] for i in range(1, n)):
            out.append(w)
    return out


def test_lyndon_word_lists():
    assert lyndon_words(XY, 1) == [(0,), (1,)]
    assert lyndon_words(XY, 2) == [XY.word("xy")]
    assert lyndon_words(XY, 4) == [
        XY.word("xxxy"),
        XY.word("xxyy"),
        XY.word("xyyy"),
    ]
    for n in range(1, 9):
        assert lyndon_words(2, n) == brute_force_lyndon(2, n)
    for n in range(1, 6):
        assert lyndon_words(3, n) == brute_force_lyndon(3, n)


def test_counts_match_witt():
    expected = [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]
    for n in range(1, 11):
        assert witt_dimension(2, n) == expected[n - 1]
        assert len(lyndon_words(2, n)) == expected[n - 1]


def test_witt_examples():
    assert witt_dimension(2, 1) == 2
    assert witt_dimension(2, 5) == 6
    assert witt_dimension(2, 8) == 30
    assert witt_dimension(3, 4) == 18
    with pytest.raises(ValueError):
        witt_dimension(0, 3)
    with pytest.raises(ValueError):
        witt_dimension(2, 0)


def test_standard_bracketing():
    assert standard_bracketing(XY, XY.word("xy")) == parse_poly(XY, "xy - yx")
    assert standard_bracketing(XY, XY.word("xxy")) == parse_poly(XY, "xxy - 2*xyx + yxx")
    assert standard_bracketing(XY, XY.word("x")) == NCPoly.letter(XY, "x")
    with pytest.raises(ValueError):
        standard_bracketing(XY, XY.word("yx"))


def test_triangularity():
    for n in range(1, 8):
        for lw in lyndon_words(XY, n):
            expansion = standard_bracketing(XY, lw)
            assert expansion.coefficient(lw) == 1
            assert all(w >= lw for w in expansion.terms)


def test_lie_coordinates_round_trip():
    assert to_lie_coordinates(parse_poly(XY, "xy - yx")).coords == {XY.word("xy"): 1}
    rng = random.Random(10)
    for n in range(1, 7):
        basis = lyndon_words(XY, n)
        coords = {lw: rng.randint(-5, 5) for lw in basis}
        p = NCPoly.zero(XY)
        for w, c in coords.items():
            p = p + standard_bracketing(XY, w).scaled(c)
        got = to_lie_coordinates(p)
        assert got.coords == {w: c for w, c in coords.items() if c}
        assert from_lie_coordinates(XY, got) == p


def test_non_lie_rejected_with_residual():
    sym = parse_poly(XY, "xy + yx")
    with pytest.raises(NotLieElementError) as info:
        to_lie_coordinates(sym)
    assert info.value.residual
    assert not is_lie_element(sym)
    with pytest.raises(ValueError):
        to_lie_coordinates(parse_poly(XY, "x + xy"))


def test_idempotent_images_are_lie():
    for d in range(1, 7):
        for wt in product(range(2), repeat=d):
            p = NCPoly.from_word(XY, wt)
            to_lie_coordinates(dynkin(p))
            to_lie_coordinates(eulerian(p))
    assert len(to_lie_coordinates(dynkin(NCPoly.from_word(XY, XY.word("xyxy")))).coords) <= witt_dimension(2, 4)
