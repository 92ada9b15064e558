"""The integer series kernel against term-by-term Fraction arithmetic.

The kernel groups words by output degree and by common denominator, so these
tests draw series over 2 and 3 letters whose components mix denominators and
are dense or non-Lie, and check the products, exp/log and the operator sums
built on it, and the defect series every verifier returns for such input.
"""

import copy
import pickle
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvlie import algebra, kv
from kvlie import series as series_module
from kvlie.algebra import XY, NCPoly, bracket, default_alphabet, parse_poly, substitute, to_text
from kvlie.kv import KvSolutionPair, bch_eulerian, general_solution, op_ad, op_bernoulli
from kvlie.kv import multilinear_f0, multilinear_particular_solution, particular_solution
from kvlie.kv import op_exp_ad_minus_one, phi_split, verify_homogeneous, verify_kv1
from kvlie.kv import verify_multilinear, verify_split
from kvlie.oracles import SWAP
from kvlie.series import GradedSeries, series_exp, series_log

COEFFS = st.builds(
    Fraction, st.integers(-30, 30).filter(bool), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12, 35])
)
RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
X, Y = NCPoly.letter(XY, "x"), NCPoly.letter(XY, "y")


def component(draw, k, d):
    """Zero, a few words, or every word of degree d (when there are at most 27)."""
    words = st.tuples(*[st.integers(0, k - 1)] * d)
    kind = draw(st.sampled_from(["zero", "sparse", "dense"] if k**d <= 27 else ["zero", "sparse"]))
    if kind == "zero":
        return {}
    if kind == "dense":
        return {w: draw(COEFFS) for w in _all_words(k, d)}
    return draw(st.dictionaries(words, COEFFS, min_size=1, max_size=min(k**d, 12)))


def _all_words(k, d):
    if d == 0:
        return [()]
    return [w + (a,) for w in _all_words(k, d - 1) for a in range(k)]


@st.composite
def series(draw, k=None, max_order=5, order=None, constant=True):
    """A graded series over 2 or 3 letters; component 0 may be nonzero."""
    k = draw(st.sampled_from([2, 3])) if k is None else k
    order = draw(st.integers(1, max_order)) if order is None else order
    alphabet = default_alphabet(k)
    parts = [NCPoly(alphabet, component(draw, k, d)) for d in range(order + 1)]
    if not constant:
        parts[0] = NCPoly.zero(alphabet)
    return GradedSeries(alphabet, order, parts)


def naive_product(s: GradedSeries, t: GradedSeries) -> GradedSeries:
    terms = [{} for _ in range(s.order + 1)]
    for a, pa in enumerate(s.parts):
        for b, pb in enumerate(t.parts):
            if a + b <= s.order:
                for wa, ca in pa.terms.items():
                    for wb, cb in pb.terms.items():
                        acc = terms[a + b]
                        acc[wa + wb] = acc.get(wa + wb, Fraction(0)) + ca * cb
    return GradedSeries(s.alphabet, s.order, [NCPoly(s.alphabet, t) for t in terms])


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_product_equals_naive_fraction_product(data):
    s = data.draw(series())
    t = data.draw(series(k=s.alphabet.size, order=s.order))
    assert s * t == naive_product(s, t)


@settings(deadline=None, max_examples=40)
@given(series(max_order=4, constant=False))
def test_log_inverts_exp(s):
    assert series_log(series_exp(s)) == s
    one = GradedSeries.one(s.alphabet, s.order)
    assert series_exp(series_log(one + s)) == one + s


@st.composite
def gapped_series(draw, k, letters, order):
    """A series over default_alphabet(k) whose words use only ``letters``."""
    alphabet = default_alphabet(k)
    parts = []
    for d in range(order + 1):
        words = st.tuples(*[st.sampled_from(letters)] * d)
        parts.append(NCPoly(alphabet, draw(st.dictionaries(words, COEFFS, max_size=6))))
    return GradedSeries(alphabet, order, parts)


@settings(deadline=None, max_examples=30)
@given(st.data())
@pytest.mark.parametrize("k, letters, order", [(3, (0, 2), 5), (14, (0, 13), 8), (14, (3, 9, 12), 4)])
def test_products_over_gaps_in_the_letters(k, letters, order, data):
    # the dense index runs over the letters present, renumbered and mapped back
    s = data.draw(gapped_series(k, letters, order))
    t = data.draw(gapped_series(k, letters[::-1][:2], order))
    assert s * t == naive_product(s, t)
    assert t * s == naive_product(t, s)
    u = GradedSeries(s.alphabet, order, (NCPoly.zero(s.alphabet),) + s.parts[1:])
    assert series_log(series_exp(u)) == u


@st.composite
def lettered_parts(draw, letters, order):
    """Components 0..order over default_alphabet(3) whose words use only
    ``letters``: any of them may be zero, so the degrees present may skip."""
    alphabet = default_alphabet(3)
    parts = []
    for d in range(order + 1):
        words = st.tuples(*[st.sampled_from(letters)] * d)
        parts.append(NCPoly(alphabet, draw(st.dictionaries(words, COEFFS, max_size=4))))
    return parts


LETTER_SETS = [(0,), (1, 2), (0, 1, 2)]  # x only, {y, z} (a gap at x), all three
IMAGES = st.fixed_dictionaries({a: st.sampled_from(["x", "-x", "y", "-y", "z", "-z"]) for a in "xyz"})


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_series_over_different_letters_match_the_component_reference(data):
    # each series is stored on the index over its own letters; every operation
    # re-indexes onto the union and must agree with NCPoly arithmetic per degree
    alphabet, order = default_alphabet(3), data.draw(st.integers(0, 4))
    p, q = (data.draw(st.sampled_from(LETTER_SETS).flatmap(lambda ls: lettered_parts(ls, order)))
            for _ in range(2))
    s, t = GradedSeries(alphabet, order, p), GradedSeries(alphabet, order, q)
    zero = NCPoly.zero(alphabet)
    assert list(s.parts) == p and GradedSeries(alphabet, order, s.parts) == s
    assert list((s + t).parts) == [a + b for a, b in zip(p, q)]
    assert list((s - t).parts) == [a - b for a, b in zip(p, q)]
    assert list((-s).parts) == [-a for a in p]
    w = data.draw(RATIONALS)
    assert list(s.scaled(w).parts) == [a.scaled(w) for a in p]
    assert (s == t) == (p == q) and (s - t) + t == s and s + t - s == t
    for u in (s, s + t):  # the index order, over each set of letters, is print order
        whole = sum(u.parts, zero)
        assert list(u.reduced_terms()) == list(whole.reduced_terms()) and to_text(u) == to_text(whole)
    low = data.draw(st.integers(0, order + 2))
    assert list(s.truncate(low).parts) == (p + [zero] * 2)[: low + 1]
    images = data.draw(IMAGES)
    assert list(s.substitute(images).parts) == [substitute(a, images) for a in p]
    # images for the letters of s only: also for a sum whose index has more
    own = {a: images[a] for a in {alphabet.letters[i] for part in p for word in part.numerators for i in word}}
    assert (s + t - t).substitute(own) == s.substitute(own)
    for duplicate in (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))):
        twin = duplicate(s)
        assert twin == s and list(twin.parts) == p and twin.dense == s.dense


def test_log_reads_back_at_most_degree_0_and_builds_no_word_dict(monkeypatch):
    alphabet = default_alphabet(3)
    s = GradedSeries.one(alphabet, 6)
    for letter in "xzy":
        s = s * series_exp(GradedSeries.generator(alphabet, letter, 6))
    calls = []
    real = series_module.from_dense
    monkeypatch.setattr(series_module, "from_dense", lambda *args: calls.append(args) or real(*args))

    def forbidden(*args):
        raise AssertionError("the dense kernel called a word-dict kernel")

    for module, name in ((algebra, "weighted_sum"), (algebra, "concat")):
        monkeypatch.setattr(module, name, forbidden)
    log = series_log(s)
    assert all(degree == 0 for _, degree, _ in calls)
    assert log.component(2) == parse_poly(alphabet, "1/2*xz - 1/2*zx + 1/2*xy - 1/2*yx + 1/2*zy - 1/2*yz")


@pytest.mark.parametrize("k, order", [(2, 1), (2, 7), (3, 5)])
def test_power_sums_compute_only_the_degrees_the_sum_reads(monkeypatch, k, order):
    # Horner's step j is read only at degrees <= order - j, so the steps from
    # the top weight down ask for degrees 1..0, 1..1, ..., 1..order: order (order + 1) / 2 products
    alphabet = default_alphabet(k)
    s = GradedSeries.from_poly(parse_poly(alphabet, "x - 1/2*y + 1/3*xy - 2*yxy"), order)
    one_plus_s = GradedSeries.one(alphabet, order) + s
    calls = []
    real = series_module._product
    monkeypatch.setattr(series_module, "_product", lambda *args: calls.append(args[2]) or real(*args))
    expected = [n for top in range(1, order + 1) for n in range(1, top + 1)]
    for power_sum, arg in ((series_exp, s), (series_log, one_plus_s)):
        calls.clear()
        power_sum(arg)
        assert calls == expected and len(calls) == order * (order + 1) // 2
    assert series_log(series_exp(s)) == s and series_exp(series_log(one_plus_s)) == one_plus_s


@st.composite
def degree_one_bases(draw, alphabet):
    """Rational combinations of the letters; all-zero weights give the zero base."""
    weights = draw(st.lists(RATIONALS, min_size=alphabet.size, max_size=alphabet.size))
    return NCPoly(alphabet, {(i,): c for i, c in enumerate(weights)})


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_exp_ad_inverts_bernoulli_up_to_ad(data):
    s = data.draw(series(max_order=5))
    b = data.draw(degree_one_bases(s.alphabet))
    ad_s = op_ad(b, s)
    assert list(ad_s.parts[1:]) == [bracket(b, p) for p in s.parts[:-1]]
    assert op_exp_ad_minus_one(b, op_bernoulli(b, s)) == ad_s


def test_operator_bases():
    s = GradedSeries.from_poly(parse_poly(XY, "xy - 2/3*y"), 4)
    b = parse_poly(XY, "2*x - 3/5*y")
    assert op_ad(b, s).component(3) == bracket(b, s.component(2))
    assert op_exp_ad_minus_one(b, op_bernoulli(b, s)) == op_ad(b, s)
    zero = NCPoly.zero(XY)
    assert op_ad(zero, s).is_zero()
    assert op_bernoulli(zero, s) == s
    assert op_exp_ad_minus_one(zero, s).is_zero()
    for bad in ("xy", "x + xy", "1", "x + 1"):
        with pytest.raises(ValueError, match="homogeneous of degree 1"):
            op_exp_ad_minus_one(parse_poly(XY, bad), s)


def ad_by_slices(base: NCPoly, vector: list) -> list:
    """ad(base) on a dense component over the letters 0..m-1 of the index,
    as two slice operations per letter a: left concatenation by a is the block
    from a m^d, right concatenation the stride-m slice a::m."""
    m = base.alphabet.size
    size, out = len(vector), [Fraction(0)] * (len(vector) * m)
    for (a,), c in base.terms.items():
        out[a * size : (a + 1) * size] = [o + c * v for o, v in zip(out[a * size : (a + 1) * size], vector)]
        out[a::m] = [o - c * v for o, v in zip(out[a::m], vector)]
    return out


@pytest.mark.parametrize("k, order", [(2, 7), (3, 5), (4, 4)])
def test_ad_sum_placements_equal_ad_applied_j_times(k, order):
    # the binomial placements of every base, zero and a signed letter included,
    # against ad(b) applied j times as two slice operations, on a series over
    # all k letters with mixed denominators and a zero weight among the weights
    alphabet = default_alphabet(k)
    letters = alphabet.letters
    s = GradedSeries(alphabet, order, [NCPoly(alphabet, {w: Fraction((sum(w) + d) % 7 - 3 or 5, d % 4 + 1)
                                                         for w in _all_words(k, d)}) for d in range(order + 1)])
    weights = [Fraction(j % 3 - 1, j + 2) for j in range(order + 1)]
    bases = ["0", f"5/3*{letters[-1]}", f"-5/3*{letters[0]}", f"2/3*{letters[0]} - 5/7*{letters[-1]}"]
    if k > 2:
        bases.append(f"1/2*{letters[0]} + 3/4*{letters[1]} - 2/5*{letters[2]}")
    for text in bases:
        base = parse_poly(alphabet, text)
        expected = [[Fraction(0)] * k**n for n in range(order + 1)]
        for d, part in enumerate(s.parts):
            vector = [part.terms.get(w, Fraction(0)) for w in _all_words(k, d)]
            for j, weight in enumerate(weights[: order + 1 - d]):
                vector = ad_by_slices(base, vector) if j else vector
                expected[d + j] = [e + weight * v for e, v in zip(expected[d + j], vector)]
        got = series_module._ad_sum(order, [(base, weights, s)])
        assert got.letters == tuple(range(k))
        assert [[Fraction(c, part[1]) for c in part[0]] if part else [0] * k**n
                for n, part in enumerate(got.dense)] == expected, text


@st.composite
def xy_polynomials(draw, max_degree):
    words = st.lists(st.integers(0, 1), min_size=1, max_size=max_degree).map(tuple)
    return NCPoly(XY, draw(st.dictionaries(words, COEFFS, min_size=1, max_size=6)))


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 6).flatmap(lambda order: st.tuples(
    st.just(order), xy_polynomials(order + 1), RATIONALS, RATIONALS)))
def test_general_solution_verifies(args):
    order, p, lam1, lam2 = args
    assert verify_kv1(general_solution(p, lam1, lam2, order), order).is_zero()


def reversed_tail(k, order):
    """sum_{n>=2} log(e^x_k ... e^x_1)_n, from exp and log of the letters."""
    alphabet = default_alphabet(k)
    product = GradedSeries.one(alphabet, order)
    for letter in reversed(alphabet.letters):
        product = product * series_exp(GradedSeries.generator(alphabet, letter, order))
    log = series_log(product)
    zero = NCPoly.zero(alphabet)
    return GradedSeries(alphabet, order, [zero, zero][: order + 1] + list(log.parts[2:]))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_two_variable_defects_spelled_out(data):
    # arbitrary (F, G), zero and non-Lie components included, against the
    # defect of each equation written with the public operators
    order = data.draw(st.integers(1, 5))
    F = data.draw(series(k=2, order=order))
    G = data.draw(series(k=2, order=order))
    E_F = op_exp_ad_minus_one(-X, F)
    E_G = op_exp_ad_minus_one(Y, G)
    pair = KvSolutionPair(F, G)
    assert verify_kv1(pair, order) == reversed_tail(2, order) - E_F + E_G
    assert verify_homogeneous(pair, order) == E_F - E_G
    target = phi_split(order)[1].substitute(SWAP)
    assert verify_split(F, order) == target - E_F


@settings(deadline=None, max_examples=15)
@given(st.data())
def test_multilinear_defect_spelled_out(data):
    order = data.draw(st.integers(1, 4))
    solutions = [data.draw(series(k=3, order=order)) for _ in range(3)]
    x, y, z = (NCPoly.letter(default_alphabet(3), a) for a in "xyz")
    expected = (
        reversed_tail(3, order)
        - op_exp_ad_minus_one(-x, solutions[0])
        - op_exp_ad_minus_one(y, solutions[1])
        - op_exp_ad_minus_one(-z, solutions[2])
    )
    assert verify_multilinear(solutions, order) == expected


@pytest.mark.parametrize("base, text, order, radix", [
    ("x", "y + 1/2*zu", 8, 4),  # the letters present are x, y, z, u: 4^8 entries, not 14^8
    ("h", "xyzu", 7, 5),  # h is letter 13: x, y, z, u, h are renumbered 0..4
], ids=["low-letters", "high-letter"])
def test_operators_densify_over_the_letters_present(monkeypatch, base, text, order, radix):
    alphabet = default_alphabet(14)
    z = NCPoly.letter(alphabet, base)
    s = GradedSeries.from_poly(parse_poly(alphabet, text), order)
    radices = []
    real = series_module._over

    def spy(series, letters):
        assert len(letters) <= radix  # before the 14^degree entries are built
        radices.append(len(letters))
        return real(series, letters)

    monkeypatch.setattr(series_module, "_over", spy)
    result = op_exp_ad_minus_one(z, s)
    assert op_exp_ad_minus_one(z, op_bernoulli(z, s)) == op_ad(z, s)
    assert set(radices) == {radix} and len(result.letters) == radix
    expected, power = GradedSeries.zero(alphabet, order), s
    for j in range(1, order + 1):
        power = GradedSeries(alphabet, order, [NCPoly.zero(alphabet)] + [bracket(z, p) for p in power.parts[:-1]])
        expected = expected + power.scaled(Fraction(1, factorial(j)))
    assert result == expected and result


def test_each_operator_solution_and_verifier_is_one_ad_sum(monkeypatch):
    s = GradedSeries.from_poly(parse_poly(XY, "xy - 2/3*y"), 4)
    pair, solutions = particular_solution(4), multilinear_particular_solution(3, 3)
    bch_eulerian(4), bch_eulerian(3, 3)
    calls = []
    real = kv._ad_sum
    monkeypatch.setattr(kv, "_ad_sum", lambda *args: calls.append(args) or real(*args))
    for run in (
        lambda: op_ad(X, s),
        lambda: op_exp_ad_minus_one(X, s),
        lambda: op_bernoulli(X, s),
        lambda: multilinear_f0(2, 3, 4),
        lambda: verify_multilinear(solutions),
        lambda: verify_kv1(pair),
        lambda: verify_homogeneous(pair),
        lambda: verify_split(pair.F),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


def test_verifiers_refuse_a_solution_over_another_alphabet():
    pair = particular_solution(3)
    other = GradedSeries.from_poly(parse_poly(default_alphabet(3), "x - 1/2*zy"), 3)
    for run in (
        lambda: verify_kv1(KvSolutionPair(pair.F, other)),
        lambda: verify_kv1(KvSolutionPair(other, pair.G)),
        lambda: verify_homogeneous(KvSolutionPair(pair.F, other)),
        lambda: verify_homogeneous(KvSolutionPair(other, pair.G)),
        lambda: verify_split(other),
        lambda: verify_multilinear(multilinear_particular_solution(3, 3)[:2] + [pair.F]),
        lambda: verify_multilinear([pair.F, other]),
    ):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            run()


@pytest.mark.parametrize("k", [2, 3])
def test_perturbed_solution_defects_equal_the_operator_reference(k):
    # a Lie perturbation of degrees 2 and 3 in each F_i: every verifier's
    # defect is the reference built with series arithmetic, term by term
    order = 6 if k == 2 else 4
    alphabet = default_alphabet(k)
    bump = GradedSeries.from_poly(parse_poly(alphabet, "1/3*xy - 1/3*yx + xxy - 2*xyx + yxx"), order)
    solutions = [F + bump.scaled(i) for i, F in enumerate(multilinear_particular_solution(k, order), 1)]
    letters = [NCPoly.letter(alphabet, a).scaled((-1) ** i) for i, a in enumerate(alphabet.letters, 1)]
    images = [op_exp_ad_minus_one(z, F) for z, F in zip(letters, solutions)]
    expected = reversed_tail(k, order) - sum(images[1:], images[0])
    defect = verify_multilinear(solutions)
    assert defect and list(defect.iter_terms()) == list(expected.iter_terms())
    if k == 2:
        pair = KvSolutionPair(solutions[0], -solutions[1])
        assert list(verify_kv1(pair).iter_terms()) == list(expected.iter_terms())
        assert verify_homogeneous(pair) == images[0] + images[1]
        target = phi_split(order)[1].substitute(SWAP)
        assert list(verify_split(pair.F).iter_terms()) == list((target - images[0]).iter_terms())
