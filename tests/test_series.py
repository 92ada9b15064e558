import random
from fractions import Fraction

import pytest

from kvlie.algebra import XY, NCPoly, parse_poly, to_text
from kvlie.lyndon import lyndon_words, standard_bracketing
from kvlie.series import GradedSeries, series_exp, series_log


def random_lie_series(rng, order, max_component=None):
    max_component = order if max_component is None else max_component
    parts = [NCPoly.zero(XY)]
    for d in range(1, order + 1):
        comp = NCPoly.zero(XY)
        if d <= max_component:
            for lw in lyndon_words(XY, d):
                comp = comp + standard_bracketing(XY, lw).scaled(rng.randint(-2, 2))
        parts.append(comp)
    return GradedSeries(XY, order, parts)


def test_component_grading_enforced():
    with pytest.raises(ValueError):
        GradedSeries(XY, 2, [NCPoly.zero(XY), parse_poly(XY, "xy")])
    s = GradedSeries.from_poly(parse_poly(XY, "1 + x + xx + xxx"), 1)
    assert s.component(1) == NCPoly.letter(XY, "x")
    with pytest.raises(ValueError):
        s.component(2)


@pytest.mark.parametrize("other", [1, parse_poly(XY, "x")], ids=["int", "ncpoly"])
def test_sum_with_a_foreign_operand_raises_type_error(other):
    s = GradedSeries.from_poly(parse_poly(XY, "x + xy"), 3)
    for combine in (lambda: s + other, lambda: s - other, lambda: other + s, lambda: other - s):
        with pytest.raises(TypeError):
            combine()


def test_truncate_and_components():
    s = GradedSeries.from_poly(parse_poly(XY, "1 + x + xx"), 2)
    t = s.truncate(1)
    assert t.order == 1
    assert t == GradedSeries.from_poly(parse_poly(XY, "1 + x"), 1)
    widened = t.truncate(3)
    assert widened.order == 3
    assert widened == GradedSeries.from_poly(parse_poly(XY, "1 + x"), 3)


def test_exp_examples():
    x = GradedSeries.generator(XY, "x", 2)
    assert to_text(series_exp(x)) == "1 + x + 1/2*xx"
    with pytest.raises(ValueError, match="series_exp requires component 0 to vanish"):
        series_exp(GradedSeries.one(XY, 2))
    with pytest.raises(ValueError, match="series_log requires component 0 equal to 1"):
        series_log(GradedSeries.generator(XY, "x", 2))
    with pytest.raises(ValueError, match="series_log requires component 0 equal to 1"):
        series_log(GradedSeries.one(XY, 2).scaled(2) + x)


def test_exp_log_inverse_pair():
    rng = random.Random(31)
    for order in (3, 5, 7):
        s = random_lie_series(rng, order)
        assert series_log(series_exp(s)) == s
        u = GradedSeries.one(XY, order) + s
        assert series_exp(series_log(u)) == u


def test_bch_degree_two():
    x = GradedSeries.generator(XY, "x", 2)
    y = GradedSeries.generator(XY, "y", 2)
    log_prod = series_log(series_exp(x) * series_exp(y))
    assert log_prod.component(1) == parse_poly(XY, "x + y")
    assert log_prod.component(2) == parse_poly(XY, "1/2*xy - 1/2*yx")


def test_series_product_truncates():
    x = GradedSeries.generator(XY, "x", 3)
    p = x * x * x * x  # degree 4 exceeds the order, must vanish
    assert p.is_zero()
    assert (x * x).component(2) == parse_poly(XY, "xx")


def test_first_nonzero_and_iter():
    s = GradedSeries.from_poly(parse_poly(XY, "xy - yx"), 3)
    assert next(s.iter_terms(), None) == (2, XY.word("xy"), Fraction(1))
    assert list(s.iter_terms()) == [
        (2, XY.word("xy"), Fraction(1)),
        (2, XY.word("yx"), Fraction(-1)),
    ]
    assert next(GradedSeries.zero(XY, 2).iter_terms(), None) is None


def test_substitute_series():
    s = GradedSeries.from_poly(parse_poly(XY, "x + xy"), 2)
    swapped = s.substitute({"x": "-y", "y": "-x"})
    assert swapped == GradedSeries.from_poly(parse_poly(XY, "-y + yx"), 2)
