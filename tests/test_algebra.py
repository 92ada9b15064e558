import copy
import pickle
import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvlie.algebra import (
    XY,
    Alphabet,
    NCPoly,
    PolyParseError,
    bracket,
    concat,
    default_alphabet,
    letter_part,
    parse_poly,
    substitute,
    to_json_terms,
    to_latex,
    to_text,
)
from kvlie.oracles import coshuffle, word_coshuffle

X = NCPoly.letter(XY, "x")
Y = NCPoly.letter(XY, "y")


def random_poly(rng, max_degree=3, alphabet=XY):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        d = rng.randint(0, max_degree)
        word = tuple(rng.randrange(alphabet.size) for _ in range(d))
        terms[word] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return NCPoly(alphabet, terms)


def test_concat_examples():
    assert concat(parse_poly(XY, "xy"), X) == parse_poly(XY, "xyx")
    assert concat(X + Y, X - Y) == parse_poly(XY, "xx - xy + yx - yy")
    assert concat(NCPoly.unit(XY), parse_poly(XY, "xy + y")) == parse_poly(XY, "xy + y")


def test_concat_associative_unital():
    rng = random.Random(2)
    one = NCPoly.unit(XY)
    for _ in range(25):
        p, q, r = (random_poly(rng, 4) for _ in range(3))
        assert concat(concat(p, q), r) == concat(p, concat(q, r))
        assert concat(one, p) == p == concat(p, one)


def test_bracket_properties():
    assert bracket(X, Y) == parse_poly(XY, "xy - yx")
    rng = random.Random(3)
    for _ in range(20):
        p, q, r = (random_poly(rng, 3) for _ in range(3))
        assert not bracket(p, p)
        assert bracket(p, q) == -bracket(q, p)
        jacobi = (
            bracket(p, bracket(q, r))
            + bracket(q, bracket(r, p))
            + bracket(r, bracket(p, q))
        )
        assert not jacobi


def test_alphabet_mismatch_rejected():
    other = Alphabet("ab")
    with pytest.raises(ValueError):
        concat(X, NCPoly.letter(other, "a"))
    with pytest.raises(ValueError):
        X + NCPoly.letter(other, "b")


def test_letter_part_examples():
    com = parse_poly(XY, "xy - yx")
    assert letter_part(com, "x") == Y
    assert letter_part(com, "y") == -X
    assert letter_part(parse_poly(XY, "1/2*xy + 1/2*yx"), "x") == Y.scaled(Fraction(1, 2))
    assert letter_part(X, "x") == NCPoly.unit(XY)
    # the constant term is discarded
    assert letter_part(parse_poly(XY, "3 + xy"), "x") == Y


def test_letter_part_reconstruction():
    rng = random.Random(4)
    for d in range(1, 6):
        for wt in product(range(2), repeat=d):
            p = NCPoly.from_word(XY, wt)
            rebuilt = NCPoly(XY, {(): p.coefficient(())})
            for sym in XY.letters:
                rebuilt = rebuilt + concat(NCPoly.letter(XY, sym), letter_part(p, sym))
            assert rebuilt == p
    for _ in range(20):
        p = random_poly(rng, 4)
        rebuilt = NCPoly(XY, {(): p.coefficient(())})
        for sym in XY.letters:
            rebuilt = rebuilt + concat(NCPoly.letter(XY, sym), letter_part(p, sym))
        assert rebuilt == p


def test_substitute():
    swap_neg = {"x": "-y", "y": "-x"}
    assert substitute(parse_poly(XY, "xy"), swap_neg) == parse_poly(XY, "yx")
    assert substitute(Y, swap_neg) == -X
    assert substitute(parse_poly(XY, "xxy"), swap_neg) == parse_poly(XY, "-yyx")
    # applying the swap-negate twice is the identity
    rng = random.Random(5)
    for _ in range(20):
        p = random_poly(rng, 4)
        assert substitute(substitute(p, swap_neg), swap_neg) == p
    with pytest.raises(ValueError):
        substitute(X, {"y": "x"})


def test_coshuffle_values():
    d = coshuffle(X)
    assert d.terms == {((), (0,)): 1, ((0,), ()): 1}
    d2 = coshuffle(parse_poly(XY, "xy"))
    xy = XY.word("xy")
    assert d2.terms == {
        ((), xy): 1,
        ((0,), (1,)): 1,
        ((1,), (0,)): 1,
        (xy, ()): 1,
    }
    assert coshuffle(NCPoly.unit(XY)).terms == {((), ()): 1}


def test_coshuffle_counit_and_coassociativity():
    # counit: picking the empty-word part on one side restores the input
    for d in range(5):
        for wt in product(range(2), repeat=d):
            delta = word_coshuffle(wt)
            left_unit = {}
            for (l, r), mult in delta.items():
                if l == ():
                    left_unit[r] = left_unit.get(r, 0) + mult
            assert left_unit == {wt: 1}
            # coassociativity: split the left leg again vs the right leg
            lhs = {}
            rhs = {}
            for (l, r), m in delta.items():
                for (a, b), m2 in word_coshuffle(l).items():
                    key = (a, b, r)
                    lhs[key] = lhs.get(key, 0) + m * m2
                for (b, c), m2 in word_coshuffle(r).items():
                    key = (l, b, c)
                    rhs[key] = rhs.get(key, 0) + m * m2
            assert lhs == rhs


def test_coshuffle_is_algebra_morphism():
    rng = random.Random(6)
    for _ in range(15):
        p = random_poly(rng, 3)
        q = random_poly(rng, 3)
        assert coshuffle(concat(p, q)) == coshuffle(p) * coshuffle(q)


def test_text_round_trip():
    rng = random.Random(7)
    for _ in range(40):
        p = random_poly(rng, 4)
        assert parse_poly(XY, to_text(p)) == p
    assert to_text(NCPoly.zero(XY)) == "0"
    assert parse_poly(XY, "1/24*xy - 1/24*yx + y") == parse_poly(
        XY, "y + 1/24*xy - 1/24*yx"
    )
    # whitespace is insignificant everywhere, including inside a word
    assert parse_poly(XY, "  1/2 * x  y ") == parse_poly(XY, "1/2*xy")


def test_text_canonical_order():
    p = parse_poly(XY, "yx - xy + y")
    assert to_text(p) == "y - xy + yx"


def test_json_round_trip():
    rng = random.Random(8)
    for _ in range(20):
        p = random_poly(rng, 4)
        assert {XY.word(t["word"]): Fraction(t["coeff"]) for t in to_json_terms(p)} == p.terms
    assert to_json_terms(parse_poly(XY, "1/2*xy - 1/2*yx")) == [
        {"word": "xy", "coeff": "1/2"},
        {"word": "yx", "coeff": "-1/2"},
    ]


def test_latex_form():
    assert to_latex(parse_poly(XY, "1/4*y + 1/24*xy")) == "\\frac{1}{4}y + \\frac{1}{24}xy"
    assert to_latex(parse_poly(XY, "-2*xy + y")) == "y - 2xy"


@pytest.mark.parametrize("text, message, position", [
    ("", "empty polynomial", 0),
    ("   ", "empty polynomial", 0),
    ("x +", "dangling sign", 3),
    ("+", "dangling sign", 1),
    ("x + - y", "expected a term", 4),
    ("1/*x", "expected denominator digits", 2),
    ("1/ 0*x", "zero denominator", 3),
    ("1/0*", "zero denominator", 2),  # ahead of the missing word
    ("2 *  ", "expected word after '*'", 5),
    ("xy - 1/2* + y", "expected word after '*'", 10),
    ("x2", "unknown letter '2'", 1),
    ("1/2*xz", "unknown letter 'z'", 5),
    ("\u0663*x", "unknown letter '\u0663'", 0),  # ARABIC-INDIC DIGIT THREE is not read as 3
    # runs longer than int() converts (sys.get_int_max_str_digits())
    pytest.param("1" * 5000 + "*x", "too many digits", 0, id="long-numerator"),
    pytest.param("x - 1 / " + "1" * 5000, "too many digits", 8, id="long-denominator"),
])
def test_parse_errors_carry_position(text, message, position):
    with pytest.raises(PolyParseError) as info:
        parse_poly(XY, text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


SPACES = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\u3000"])


@st.composite
def spelled_terms(draw):
    """A sum of drawn terms over xy, spelled with whitespace anywhere and an
    optional '*', and the NCPoly it names."""
    text, expected = "", {}
    for k in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from("+-"))
        coeff = draw(st.none() | st.tuples(st.integers(0, 50), st.none() | st.integers(1, 12)))
        word = draw(st.text("xy", min_size=0 if coeff else 1, max_size=4))
        text += draw(SPACES)
        if k or sign == "-" or draw(st.booleans()):
            text += sign + draw(SPACES)
        value = Fraction(1)
        if coeff:
            a, b = coeff
            text += str(a) + ("" if b is None else draw(SPACES) + "/" + draw(SPACES) + str(b))
            if word and draw(st.booleans()):
                text += draw(SPACES) + "*"
            value = Fraction(a, b or 1)
        text += "".join(draw(SPACES) + ch for ch in word) + draw(SPACES)
        key = XY.word(word)
        expected[key] = expected.get(key, 0) + (value if sign == "+" else -value)
    return text, NCPoly(XY, expected)


@settings(max_examples=300, deadline=None)
@given(spelled_terms())
def test_parse_reads_every_spelling_of_a_sum_of_terms(case):
    text, expected = case
    assert parse_poly(XY, text) == expected


def test_homogeneous_component():
    p = parse_poly(XY, "x + xy")
    assert p.homogeneous_component(2) == parse_poly(XY, "xy")
    assert not p.homogeneous_component(5)
    assert not X.homogeneous_component(5)


# -- the integer representation against a naive Fraction-dict reference --------

RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 9, 10]))


def word_dicts(k):
    """Words of length 0..4 over k letters with rational coefficients, zeros included."""
    words = st.lists(st.integers(0, k - 1), max_size=4).map(tuple)
    return st.dictionaries(words, RATIONALS, max_size=8)


@st.composite
def polynomial_pairs(draw):
    """(alphabet, a, b): two coefficient dicts over 2 or 3 letters, b cancelling
    some words of a."""
    k = draw(st.sampled_from([2, 3]))
    a, b = draw(word_dicts(k)), draw(word_dicts(k))
    for word in draw(st.lists(st.sampled_from(sorted(a)), unique=True)) if a else []:
        b[word] = -a[word]
    return default_alphabet(k), a, b


def reference(terms):
    return {w: Fraction(c) for w, c in terms.items() if c}


def reference_add(a, b, sign=1):
    out = dict(reference(a))
    for w, c in b.items():
        out[w] = out.get(w, Fraction(0)) + sign * c
    return reference(out)


def reference_concat(a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, Fraction(0)) + ca * cb
    return reference(out)


def reference_substitute(a, table):
    out = {}
    for w, c in a.items():
        sign = 1
        for i in w:
            sign *= table[i][1]
        image = tuple(table[i][0] for i in w)
        out[image] = out.get(image, Fraction(0)) + sign * c
    return reference(out)


@settings(deadline=None, max_examples=100)
@given(polynomial_pairs(), RATIONALS, st.integers(0, 4), st.data())
def test_operations_match_the_fraction_reference(pair, scalar, degree, data):
    alphabet, a, b = pair
    p, q = NCPoly(alphabet, a), NCPoly(alphabet, b)
    assert dict(p.terms) == reference(a)
    assert dict((p + q).terms) == reference_add(a, b)
    assert dict((p - q).terms) == reference_add(a, b, -1)
    assert dict((-p).terms) == {w: -c for w, c in reference(a).items()}
    assert dict(p.scaled(scalar).terms) == reference({w: scalar * c for w, c in a.items()})
    assert dict(concat(p, q).terms) == reference_concat(a, b)
    for i, letter in enumerate(alphabet.letters):
        expected = reference({w[1:]: c for w, c in a.items() if w and w[0] == i})
        assert dict(letter_part(p, letter).terms) == expected
    assert dict(p.homogeneous_component(degree).terms) == reference(
        {w: c for w, c in a.items() if len(w) == degree}
    )
    table = {
        i: (data.draw(st.integers(0, alphabet.size - 1)), data.draw(st.sampled_from([1, -1])))
        for i in range(alphabet.size)
    }
    images = {
        alphabet.letters[i]: ("-" if sign < 0 else "") + alphabet.letters[j]
        for i, (j, sign) in table.items()
    }
    assert dict(substitute(p, images).terms) == reference_substitute(a, table)


@settings(deadline=None, max_examples=100)
@given(polynomial_pairs(), st.integers(1, 12))
def test_equal_values_share_one_canonical_form(pair, factor):
    alphabet, a, b = pair
    p, q = NCPoly(alphabet, a), NCPoly(alphabet, b)
    terms = reference(a)
    scale = lcm(*(c.denominator for c in terms.values())) * factor
    unreduced = NCPoly._raw(alphabet, {w: int(c * scale) for w, c in terms.items()}, scale)
    copies = (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p)))
    for value in (unreduced, p + q - q, *copies):
        assert value == p and hash(value) == hash(p)
        assert value.scale == p.scale and dict(value.numerators) == dict(p.numerators)
    assert p.scale > 0 and gcd(p.scale, *p.numerators.values()) == 1
    assert all(p.numerators.values())
    for value in (p, *copies):
        with pytest.raises(TypeError):
            value.terms[(0,)] = Fraction(1)
        with pytest.raises(TypeError):
            value.numerators[(0,)] = 1
        for name in ("terms", "numerators", "scale", "alphabet"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        assert value == p
