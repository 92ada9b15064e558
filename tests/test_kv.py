import copy
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from kvlie.algebra import (
    XY,
    NCPoly,
    bracket,
    concat,
    default_alphabet,
    from_dense,
    letter_part,
    parse_poly,
    substitute,
)
from kvlie.idempotents import (
    NotLieElementError,
    bch_component,
    dynkin,
    kernel_generator,
    patras_reutenauer_generator,
    psi,
)
from kvlie.kv import (
    NEGATE_SWAP,
    KvSolutionPair,
    _certify_lie,
    antisymmetric_kernel_element,
    bch_eulerian,
    bch_oracle,
    clear_caches,
    f0,
    g0,
    general_solution,
    homogeneous_solution,
    multilinear_f0,
    multilinear_particular_solution,
    op_ad,
    op_bernoulli,
    op_exp_ad_minus_one,
    particular_solution,
    phi_split,
    symmetrize,
    verify_homogeneous,
    verify_kv1,
    verify_multilinear,
    verify_split,
)
from kvlie.linalg import nullspace_dimension, rank
from kvlie.lyndon import is_lie_element, lyndon_words, standard_bracketing, to_lie_coordinates
from kvlie.oracles import (
    SWAP,
    ad_inverse,
    bch_permutation_oracle,
    dynkin_kernel_basis,
    operator_nullity,
    solve_split_chain,
)
from kvlie import idempotents, kv, oracles, permutations, scalars, series
from kvlie.series import GradedSeries, _ad_sum, series_exp, series_log

X = NCPoly.letter(XY, "x")
Y = NCPoly.letter(XY, "y")


def lie_series(rng, order, lo=1):
    parts = [NCPoly.zero(XY)]
    for d in range(1, order + 1):
        comp = NCPoly.zero(XY)
        if d >= lo:
            for lw in lyndon_words(XY, d):
                comp = comp + standard_bracketing(XY, lw).scaled(rng.randint(-2, 2))
        parts.append(comp)
    return GradedSeries(XY, order, parts)


# -- BCH ------------------------------------------------------------------------


def test_bch_low_components():
    phi = bch_eulerian(3)
    assert phi.component(1) == parse_poly(XY, "x + y")
    assert phi.component(2) == parse_poly(XY, "1/2*xy - 1/2*yx")
    expected3 = (
        bracket(X, bracket(X, Y)).scaled(Fraction(1, 12))
        + bracket(Y, bracket(Y, X)).scaled(Fraction(1, 12))
    )
    assert phi.component(3) == expected3


def test_bch_routes_agree():
    assert bch_eulerian(6) == bch_oracle(6)


def test_bch_power_word_route_equals_permutation_oracle():
    for n in range(1, 9):
        assert bch_eulerian(n) == bch_permutation_oracle(n), n


@pytest.mark.parametrize("k, top", [(2, 12), (3, 7), (4, 5), (3, 8), (4, 6), (5, 5), (2, 14), (3, 9)])
def test_goldberg_kernel_equals_exp_log_on_every_word(k, top):
    oracle = bch_oracle(top, k)
    for n in range(1, top + 1):
        assert bch_component(n, k) == oracle.component(n), (k, n)
    assert bch_eulerian(top, k) == oracle


def test_production_route_calls_no_permutation_sum(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("production code reached the S_n permutation sum")

    clear_caches()
    monkeypatch.setattr(permutations, "sn_with_descents", forbidden)
    monkeypatch.setattr(oracles, "sn_with_descents", forbidden)
    monkeypatch.setattr(oracles, "_eulerian_word", forbidden)
    assert bch_eulerian(9).order == 9
    p = parse_poly(XY, "2/3*xxyxy - 1/5*yyx + xy")
    assert verify_kv1(general_solution(p, order=9), 9).is_zero()
    assert solve_split_chain(8).component(8) == f0(8).component(8)


def test_bch_swap_is_substitution_symmetric():
    phi = bch_eulerian(5)
    swapped = phi.substitute(SWAP)
    oracle = series_log(
        series_exp(GradedSeries.generator(XY, "y", 5))
        * series_exp(GradedSeries.generator(XY, "x", 5))
    )
    assert swapped == oracle


def test_bch_antisymmetry():
    phi = bch_eulerian(6)
    for n in range(2, 7):
        comp = phi.component(n)
        assert comp == -substitute(comp, NEGATE_SWAP)


def test_bch_components_are_lie():
    phi = bch_eulerian(6)
    for n in range(1, 7):
        to_lie_coordinates(phi.component(n))


@pytest.mark.parametrize("k, n", [(2, 10), (3, 7), (4, 5)])
def test_reversed_arguments_equal_the_letter_reversal(k, n):
    # log(e^x_k ... e^x_1) = -Z(-x_1, ..., -x_k): a sign per degree
    phi, tail = bch_eulerian(n, k), kv._reversed_tail(n, k)
    letters = phi.alphabet.letters
    reversal = phi.substitute(dict(zip(letters, reversed(letters))))
    assert tail.parts[2:] == reversal.parts[2:]
    assert not any(tail.parts[:2])


@pytest.fixture
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def test_bch_component_certifies_the_goldberg_kernel(monkeypatch, fresh_caches):
    real = idempotents._class_numerators
    reversed_phi = kv._reversed_tail(5, 3)
    clear_caches()
    # ascents and descents swapped: the reversed-order series, still Lie
    monkeypatch.setattr(
        idempotents, "_class_numerators", lambda poly, m, moment: real(poly, m, moment)[::-1]
    )
    for n in range(2, 6):
        assert bch_component(n, 3) == reversed_phi.component(n)
    clear_caches()
    # descents dropped: degree 2 becomes xy/2 + yx, not a Lie element
    monkeypatch.setattr(
        idempotents,
        "_class_numerators",
        lambda poly, m, moment: [sum(c * moment[u + j][0] for j, c in enumerate(poly)) for u in range(m)],
    )
    for k in (2, 3):
        bch_component(1, k)
        with pytest.raises(NotLieElementError) as err:
            bch_component(2, k)
        assert err.value.residual


def count_r_passes(monkeypatch) -> dict[str, int]:
    """Count the dense (one ``_lie_level`` call each, however many blocks it
    nests) and the sparse passes of r from here on."""
    calls = {"dense": 0, "sparse": 0}

    def counting(key, real):
        def wrapped(*args):
            calls[key] += 1
            return real(*args)

        return wrapped

    dense = counting("dense", idempotents._lie_level)
    monkeypatch.setattr(idempotents, "_lie_level", dense)
    monkeypatch.setattr(kv, "_lie_level", dense)
    monkeypatch.setattr(idempotents, "_nest_packed", counting("sparse", idempotents._nest_packed))
    return calls


def test_goldberg_components_are_certified_once(monkeypatch, fresh_caches):
    passes = count_r_passes(monkeypatch)
    # Z_2, ..., Z_7 once each: f0(6) reads Z_2..Z_7, the verifiers Z_2..Z_6,
    # and none of them builds Z_1
    assert verify_kv1(particular_solution(6), 6).is_zero()
    assert verify_split(f0(6), 6).is_zero()
    assert passes == {"dense": 6, "sparse": 0}
    # a BCH series built outside the Goldberg tables is certified by
    # _certify_lie, one r pass per stored component
    bch_oracle(3)
    assert passes == {"dense": 9, "sparse": 0}
    with pytest.raises(NotLieElementError):
        _certify_lie(GradedSeries(XY, 2, [NCPoly.zero(XY), X, parse_poly(XY, "xy")]))
    # two checks; the one that fails reads the residual it reports from its own pass
    assert passes == {"dense": 11, "sparse": 0}


@pytest.mark.parametrize("n", [1, 8])
def test_f0_runs_one_r_pass_per_bch_component(monkeypatch, fresh_caches, n):
    # the particular solution reads the letter-nested shares from the levels
    # that the certification of each component Z_2, ..., Z_{n+1} kept, and
    # builds no Z_1
    passes = count_r_passes(monkeypatch)
    f0(n)
    assert passes == {"dense": n, "sparse": 0}
    assert idempotents._goldberg.cache_info().currsize == n


def test_certify_lie_reports_the_kernel_projection_as_residual(monkeypatch):
    bad = parse_poly(XY, "2/3*xxy - 1/5*yxy + 1/7*yyx")
    parts = [NCPoly.zero(XY), X, parse_poly(XY, "xy - yx"), bad]
    _certify_lie(GradedSeries(XY, 2, parts[:3]))
    expected = kernel_generator(bad)
    with pytest.raises(NotLieElementError) as err:
        _certify_lie(GradedSeries(XY, 3, parts))
    assert err.value.residual and err.value.residual == expected

    # the residual is read from the failing r pass: r on word dicts never runs
    def refuse(terms):
        raise AssertionError("r ran on a word dict")

    monkeypatch.setattr(idempotents, "_nest_packed", refuse)
    with pytest.raises(NotLieElementError) as err:
        _certify_lie(GradedSeries(XY, 3, parts))
    assert err.value.residual == expected


# -- split ------------------------------------------------------------------------


def test_phi_split_degree_two():
    plus, minus = phi_split(4)
    quarter = Fraction(1, 4)
    assert plus.component(2) == parse_poly(XY, "xy - yx").scaled(quarter)
    assert minus.component(2) == parse_poly(XY, "xy - yx").scaled(quarter)


def test_phi_split_reconstructs_tail():
    phi = bch_eulerian(6)
    plus, minus = phi_split(6)
    for n in range(2, 7):
        assert plus.component(n) + minus.component(n) == phi.component(n)
        to_lie_coordinates(plus.component(n))
        to_lie_coordinates(minus.component(n))


def test_phi_split_matches_the_descent_class_dynkin_map():
    # the z-leading share gamma(z (Phi_n)_z), with gamma as the descent-class sum
    phi = bch_eulerian(9)
    plus, minus = phi_split(9)
    for z, share in (("x", plus), ("y", minus)):
        letter = NCPoly.letter(XY, z)
        for n in range(2, 10):
            leading = concat(letter, letter_part(phi.component(n), z))
            assert share.component(n) == oracles.dynkin_via_descents(leading)


def test_phi_split_reads_the_levels_of_either_construction(monkeypatch):
    # the split reads the levels that _goldberg kept and runs no r pass of its
    # own; its halves add up to the exp/log series
    from kvlie import algebra, series

    oracle = bch_oracle(8)
    bch_eulerian(8)
    words = NCPoly(XY, {w: Fraction(i % 5 - 2, i % 3 + 1)
                        for i, w in enumerate(product(range(2), repeat=6))})
    expected = oracles.dynkin_via_descents(words)

    def forbidden(*args):
        raise AssertionError("an r pass or a densification ran")

    for module, name in ((kv, "dynkin"), (kv, "letter_part"), (idempotents, "_nest")):
        monkeypatch.setattr(module, name, forbidden)
    for module in (algebra, idempotents, kv, series):
        if getattr(module, "dense", None) is algebra.dense:
            monkeypatch.setattr(module, "dense", forbidden)
    plus, minus = phi_split(8)
    for n in range(2, 9):
        assert plus.component(n) + minus.component(n) == oracle.component(n)
    # dynkin reads word dicts only: all 64 words of degree 6 over two letters
    # stay in the packed route, with no dense vector
    assert dynkin(words) == expected


def test_phi_split_symmetry():
    plus, minus = phi_split(6)
    assert plus == -minus.substitute(NEGATE_SWAP)


def test_plus_split_lands_in_image_of_ad_y():
    # Phi^+(y, x) is solvable as ad(y) of a Lie element, degree by degree
    plus, _ = phi_split(5)
    target = plus.substitute(SWAP)
    for n in range(2, 6):
        u = ad_inverse("y", target.component(n), n - 1)
        assert bracket(Y, u) == target.component(n) and is_lie_element(u)


# -- operators ----------------------------------------------------------------------


def test_operator_examples():
    y_series = GradedSeries.from_poly(Y, 2)
    e_xy = op_exp_ad_minus_one(X, y_series)
    assert e_xy == GradedSeries.from_poly(parse_poly(XY, "xy - yx"), 2)
    x_series = GradedSeries.from_poly(X, 3)
    assert op_bernoulli(X, x_series) == x_series
    assert op_ad(X, y_series).component(2) == parse_poly(XY, "xy - yx")


def test_bernoulli_and_exponential_operators_invert():
    rng = random.Random(40)
    s = lie_series(rng, 8)
    for sym, sign in (("x", 1), ("x", -1), ("y", 1), ("y", -1)):
        base = NCPoly.letter(XY, sym).scaled(sign)
        left = op_bernoulli(base, op_exp_ad_minus_one(base, s))
        right = op_exp_ad_minus_one(base, op_bernoulli(base, s))
        expected = op_ad(base, s)
        assert left == expected
        assert right == expected


def test_operator_kernel_facts():
    # E(-x) annihilates x, so shifting F by a multiple of x changes nothing
    x_series = GradedSeries.from_poly(X, 5)
    minus_x = X.scaled(-1)
    assert op_exp_ad_minus_one(minus_x, x_series).is_zero()
    assert operator_nullity("x", 1) == 1
    for d in range(2, 7):
        assert operator_nullity("x", d) == 0


def test_ad_x_kernel_on_full_tensor_algebra():
    # degree-wise, ker ad(x) on words of degree d is exactly the line x^d
    for d in range(1, 7):
        words = [w for w in product(range(2), repeat=d)]
        columns = [bracket(X, NCPoly.from_word(XY, w)) for w in words]
        rows = [w for w in product(range(2), repeat=d + 1)]
        matrix = [[col.coefficient(r) for col in columns] for r in rows]
        assert nullspace_dimension(matrix) == 1
        assert not bracket(X, NCPoly.from_word(XY, (0,) * d))


# -- the particular solution -----------------------------------------------------------


def test_a_series_values():
    # F0 = -Ber(-x) b, with b_d = (-1)^d (d/(d+1)) gamma((Z_{d+1})_x) the Lie
    # series a(-x, -y) of the two-variable construction
    order = 6
    phi = bch_eulerian(order + 1)
    parts = [NCPoly.zero(XY)] + [
        dynkin(letter_part(phi.component(d + 1), "x")).scaled(Fraction((-1) ** d * d, d + 1))
        for d in range(1, order + 1)
    ]
    b = GradedSeries(XY, order, parts)
    assert b.component(1) == Y.scaled(Fraction(-1, 4))
    for d in range(1, order + 1):
        assert dynkin(b.component(d)) == b.component(d)
    assert f0(order) == -op_bernoulli(X.scaled(-1), b)
    # the split equation is the ground truth for every component:
    # ad(x) b reproduces the y-leading Dynkin half of the swapped tail
    lhs = op_ad(X, b)
    _, minus = phi_split(order)
    target = minus.substitute(SWAP)
    for n in range(2, order + 1):
        assert lhs.component(n) == target.component(n)


def test_f0_low_degrees():
    F = f0(3)
    assert F.component(1) == parse_poly(XY, "1/4*y")
    assert F.component(2) == parse_poly(XY, "1/24*xy - 1/24*yx")
    assert F.component(3) == parse_poly(
        XY, "-1/48*xxy + 1/24*xyx + 1/48*xyy - 1/48*yxx - 1/24*yxy + 1/48*yyx"
    )
    assert g0(3) == F.substitute(NEGATE_SWAP)
    for d in range(1, 4):
        assert is_lie_element(F.component(d))


def test_solution_series_are_lie_valued():
    for d in range(1, 7):
        assert is_lie_element(f0(6).component(d))
        assert is_lie_element(g0(6).component(d))
    pair = homogeneous_solution(parse_poly(XY, "1/2*xy + 1/2*yx"), order=6)
    for d in range(1, 7):
        assert is_lie_element(pair.F.component(d))
        assert is_lie_element(pair.G.component(d))


def test_verify_split():
    F = f0(6)
    assert verify_split(F, 6).is_zero()
    shifted = F + GradedSeries.generator(XY, "x", 6).scaled(Fraction(3, 7))
    assert verify_split(shifted, 6).is_zero()
    zero_defect = verify_split(GradedSeries.zero(XY, 5), 5)
    _, minus = phi_split(5)
    assert zero_defect == minus.substitute(SWAP)
    # a lower order is a plain truncation, as for verify_kv1
    assert verify_split(F, 5).is_zero()


def test_verify_split_builds_only_the_share_it_uses(monkeypatch):
    # the x-leading share of the reversed tail, read from the certification
    # passes that f0(6) already ran: one ad sum and no r pass
    f0(6)
    passes = count_r_passes(monkeypatch)
    shares = []
    monkeypatch.setattr(kv, "_ad_sum", lambda *args: shares.append(args) or _ad_sum(*args))
    assert verify_split(f0(6), 6).is_zero()
    assert len(shares) == 1 and passes == {"dense": 0, "sparse": 0}


def test_verifiers_refuse_orders_above_their_input():
    pair = particular_solution(4)
    with pytest.raises(ValueError, match="order 6 is above the order 4"):
        verify_kv1(pair, 6)
    with pytest.raises(ValueError, match="order 6 is above the order 4"):
        verify_split(pair.F, 6)
    with pytest.raises(ValueError, match="order 6 is above the order 4"):
        verify_homogeneous(pair, 6)
    sols = multilinear_particular_solution(3, 3)
    with pytest.raises(ValueError, match="order 4 is above the order 3"):
        verify_multilinear(sols, 4)
    # a lower order is a plain truncation and still verifies
    assert verify_kv1(particular_solution(6), 4).is_zero()
    assert verify_multilinear(sols, 2).is_zero()


@pytest.mark.parametrize("order", [0, -1])
@pytest.mark.parametrize("equation", ["kv1", "split", "homogeneous", "multilinear"])
def test_verifiers_refuse_orders_below_one(equation, order):
    # an order below 1 checks nothing, so it is refused, not reported verified
    pair = particular_solution(4)
    checks = {
        "kv1": lambda: verify_kv1(pair, order),
        "split": lambda: verify_split(pair.F, order),
        "homogeneous": lambda: verify_homogeneous(pair, order),
        "multilinear": lambda: verify_multilinear(multilinear_particular_solution(3, 3), order),
    }
    with pytest.raises(ValueError, match="order must be >= 1"):
        checks[equation]()


def test_constructions_refuse_orders_below_their_range():
    for build in (lambda: f0(-1), lambda: phi_split(0), lambda: bch_eulerian(0)):
        with pytest.raises(ValueError, match="order must be >="):
            build()
    assert f0(0) == GradedSeries.zero(XY, 0)


def test_clear_caches_resets_bernoulli_memo():
    assert scalars.bernoulli(12) == Fraction(-691, 2730)
    assert scalars._bernoulli.cache_info().currsize > 1
    clear_caches()
    assert scalars._bernoulli.cache_info().currsize == 0
    assert scalars._bernoulli(12) == (-691, 2730)


def _kvlie_lru_caches():
    """Every lru_cache defined in a kvlie module, found by importing the package."""
    import importlib
    import pkgutil

    import kvlie

    caches = {}
    for info in pkgutil.iter_modules(kvlie.__path__):
        module = importlib.import_module(f"kvlie.{info.name}")
        for name, fn in vars(module).items():
            if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = fn
    return caches


def test_clear_caches_empties_every_lru_cache():
    caches = _kvlie_lru_caches()
    assert {"kv.f0", "kv.bch_oracle", "lyndon._standard_bracketing_word",
            "idempotents._goldberg", "permutations._sn_descents_cached"} <= set(caches)
    f0(6)
    bch_oracle(5)
    bch_permutation_oracle(5)
    assert sum(fn.cache_info().currsize for fn in caches.values()) > 0
    clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in caches.items() if fn.cache_info().currsize} == {}


def test_cached_results_are_read_only():
    clear_caches()
    expected = f0(4)
    component = expected.parts[2]
    assert component
    with pytest.raises(AttributeError):
        component.terms.clear()
    with pytest.raises(TypeError):
        component.terms[(0, 0)] = Fraction(1)
    with pytest.raises(TypeError):
        del component.terms[next(iter(component.terms))]
    snapshot = [dict(p.terms) for p in expected.parts]
    with pytest.raises(AttributeError):
        f0(4).parts[2].terms = {}
    with pytest.raises(AttributeError):
        f0(4).parts = ()
    with pytest.raises(AttributeError):
        bch_oracle(3).order = 99
    with pytest.raises(AttributeError):
        del f0(4).parts[1].alphabet
    assert f0(4) is expected
    assert [dict(p.terms) for p in f0(4).parts] == snapshot
    assert bch_oracle(3).order == 3
    # the reversed BCH series, built from the cached Goldberg tables
    reversed_phi = kv._reversed_tail(4, 3)
    reversed_snapshot = [dict(p.terms) for p in reversed_phi.parts]
    with pytest.raises(AttributeError):
        reversed_phi.parts = ()
    with pytest.raises(TypeError):
        reversed_phi.parts[3].terms[(0, 0, 0)] = Fraction(1)
    multilinear_particular_solution(3, 3)
    assert [dict(p.terms) for p in reversed_phi.parts] == reversed_snapshot
    # the stored vectors of the series are tuples, and their slots stay bound
    for s in (f0(4), bch_eulerian(4, 3), reversed_phi):
        assert type(s.dense) is tuple and all(type(part[0]) is tuple for part in s.dense if part)
        for name in ("dense", "letters"):
            with pytest.raises(AttributeError):
                setattr(s, name, ())
    with pytest.raises(TypeError):
        f0(4).dense[2][0][0] = 1
    # the Goldberg table: the component's vector and scale, and the level of r
    # its certification kept
    vector, scale, nested = table = idempotents._goldberg(4, 3)
    assert type(table) is tuple and type(vector) is tuple and type(nested) is tuple
    assert bch_component(4, 3) == NCPoly._raw(default_alphabet(3), from_dense(vector, 4, range(3)), scale)
    with pytest.raises(TypeError):
        nested[0] = 1
    assert idempotents._goldberg(4, 3) is table
    clear_caches()
    assert idempotents._goldberg.cache_info().currsize == 0
    assert f0(4) == expected


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_values_copy_and_pickle_as_immutable_values(duplicate):
    series = f0(4)
    phi = bch_eulerian(4)
    pair = particular_solution(4)
    series_copy, phi_copy, pair_copy = duplicate(series), duplicate(phi), duplicate(pair)
    assert (series_copy, phi_copy, pair_copy) == (series, phi, pair)
    with pytest.raises(AttributeError):
        series_copy.order = 1
    with pytest.raises(AttributeError):
        phi_copy.parts[2].terms = {}
    with pytest.raises(AttributeError):
        pair_copy.F = pair.G
    with pytest.raises(AttributeError):
        pair_copy.G.parts = ()
    with pytest.raises(TypeError):
        series_copy.parts[2].terms[(0, 0)] = Fraction(1)


def test_verify_kv1():
    pair = particular_solution(6)
    assert verify_kv1(pair, 6).is_zero()
    zero_pair = KvSolutionPair(GradedSeries.zero(XY, 6), GradedSeries.zero(XY, 6))
    defect = verify_kv1(zero_pair, 6)
    assert not defect.is_zero()
    assert next(defect.iter_terms(), None)[0] == 2


def test_kv1_against_conjugation_arithmetic():
    # fully independent route: exp(ad z) w = exp(z) w exp(-z), so the first
    # equation becomes plain series arithmetic with no operator machinery
    order = 6
    F, G = f0(order), g0(order)
    gen_x = GradedSeries.generator(XY, "x", order)
    gen_y = GradedSeries.generator(XY, "y", order)
    ex, emx = series_exp(gen_x), series_exp(-gen_x)
    ey, emy = series_exp(gen_y), series_exp(-gen_y)
    lhs = gen_x + gen_y - series_log(ey * ex)
    rhs = (F - emx * F * ex) + (ey * G * emy - G)
    assert (lhs - rhs).is_zero()


def _by_word(s: GradedSeries, sign: int = 1) -> Counter:
    return Counter({w: sign * c for _, w, c in s.iter_terms()})


def _conjugation_defect(alphabet, order, solutions, tail=True):
    """The tail of log(e^x_k ... e^x_1) (its components of degree >= 2), or 0 when
    not ``tail``, minus sum_i sign_i (e^(s_i x_i) F_i e^(-s_i x_i) - F_i) for
    (sign_i, F_i) in ``solutions`` and s_i = (-1)^i, as the nonzero coefficients
    by word.  exp(ad z) w = e^z w e^(-z), so only series_exp, series_log, * and
    word dicts are read: no Goldberg vector, ``_ad_sum`` or Bernoulli weight."""
    defect = Counter()
    if tail:
        product = GradedSeries.one(alphabet, order)
        for letter in reversed(alphabet.letters):
            product = product * series_exp(GradedSeries.generator(alphabet, letter, order))
        defect.update({w: c for d, w, c in series_log(product).iter_terms() if d >= 2})
    for i, (letter, (sign, F)) in enumerate(zip(alphabet.letters, solutions), start=1):
        z = NCPoly.letter(alphabet, letter).scaled((-1) ** i)
        left, right = (series_exp(GradedSeries.from_poly(t, order)) for t in (z, -z))
        defect.subtract(_by_word(left * F * right, sign))
        defect.update(_by_word(F, sign))
    return {w: c for w, c in defect.items() if c}


@pytest.mark.parametrize("text, lam1, lam2", [
    ("xyxy - 2/3*yxxy + xxxyy", 1, -2),
    ("xxy", Fraction(1, 3), 0),
    ("1/2*xy + 1/2*yx - 5*yyxyx", 0, Fraction(-7, 4)),
])
def test_general_solution_against_conjugation_arithmetic(text, lam1, lam2):
    # the kv1 pair at degree 11: with (F_1, F_2) = (F, -G) the first equation is
    # the two-letter multilinear one
    F, G = general_solution(parse_poly(XY, text), lam1, lam2, 11)
    assert _conjugation_defect(XY, 11, [(1, F), (-1, G)]) == {}


def test_homogeneous_solution_against_conjugation_arithmetic():
    # e^(-x) F e^x - F = e^y G e^(-y) - G
    p = kernel_generator(parse_poly(XY, "xyxy - 2/3*yxxy + xxxyy + yyyxxxy"))
    F, G = homogeneous_solution(p, Fraction(2, 3), -1, 11)
    assert _conjugation_defect(XY, 11, [(1, F), (-1, G)], tail=False) == {}


@pytest.mark.parametrize("k, order", [(3, 8), (4, 6)])
def test_multilinear_particular_solution_against_conjugation_arithmetic(k, order):
    solutions = multilinear_particular_solution(k, order)
    assert _conjugation_defect(default_alphabet(k), order, [(1, F) for F in solutions]) == {}


@pytest.mark.parametrize("top", [5, 13])
def test_solve_split_linear(top):
    assert solve_split_chain(1).component(1) == parse_poly(XY, "1/4*y")
    assert solve_split_chain(2).component(2) == parse_poly(XY, "1/24*xy - 1/24*yx")
    chain = solve_split_chain(top)
    F = f0(top)
    for d in range(1, top + 1):
        assert chain.component(d) == F.component(d)


def test_ad_inverse_rejects_what_is_not_ad_of_a_lie_element():
    with pytest.raises(ValueError):
        ad_inverse("x", parse_poly(XY, "xy"), 1)  # [x, .] reaches only xy - yx
    with pytest.raises(ValueError):
        ad_inverse("x", parse_poly(XY, "xxy - xyx"), 2)  # the word solution xy
    with pytest.raises(ValueError):
        ad_inverse("x", parse_poly(XY, "xx"), 1)  # no degree-1 u has [x, u] = xx
    assert ad_inverse("x", parse_poly(XY, "xy - yx"), 1) == Y
    assert ad_inverse("y", parse_poly(XY, "yx - xy"), 1) == X
    xy = bracket(X, Y)
    assert ad_inverse("y", bracket(Y, xy), 2) == xy
    abc = default_alphabet(3)
    a, b, c = (NCPoly.letter(abc, t) for t in abc.letters)
    u = bracket(a, bracket(b, c)) - bracket(c, bracket(c, a)).scaled(Fraction(2, 3))
    assert ad_inverse(abc.letters[1], bracket(b, u), 3) == u


def test_split_oracle_reads_no_production_operator(monkeypatch):
    F = f0(6)

    def forbidden(*args, **kwargs):
        raise AssertionError("the split oracle reached a production construction")

    for module_name, name in (
        ("series", "_ad_sum"),
        ("kv", "_letter_nested"),
        ("kv", "phi_split"),
        ("kv", "f0"),
        ("idempotents", "_goldberg"),
        ("scalars", "_bernoulli"),
    ):
        real = getattr(sys.modules["kvlie." + module_name], name)
        for module in [m for key, m in sys.modules.items() if key.startswith("kvlie")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, forbidden)
    assert solve_split_chain(6) == F


# -- symmetrisation ---------------------------------------------------------------------


def test_symmetrize_fixed_point():
    pair = particular_solution(5)
    again = symmetrize(pair)
    assert again.F == pair.F
    assert again.G == pair.G


def test_symmetrize_asymmetric_input():
    order = 5
    p = patras_reutenauer_generator(parse_poly(XY, "xy"))
    pair = general_solution(p, order=order)
    assert pair.G != pair.F.substitute(NEGATE_SWAP)  # genuinely asymmetric
    lam = Fraction(2, 3)
    sym = symmetrize(pair, lam)
    assert verify_kv1(sym, order).is_zero()
    assert sym.G == sym.F.substitute(NEGATE_SWAP)
    # lambda only moves the degree-1 components
    base = symmetrize(pair)
    assert sym.F.component(1) - base.F.component(1) == X.scaled(lam)
    assert sym.G.component(1) - base.G.component(1) == Y.scaled(-lam)
    for d in range(2, order + 1):
        assert sym.F.component(d) == base.F.component(d)


def test_symmetrize_rejects_non_solutions():
    bad = KvSolutionPair(
        GradedSeries.generator(XY, "y", 4), GradedSeries.zero(XY, 4)
    )
    with pytest.raises(ValueError):
        symmetrize(bad)


# -- homogeneous equation ------------------------------------------------------------------


def test_homogeneous_solution_basic():
    p = parse_poly(XY, "1/2*xy + 1/2*yx")
    pair = homogeneous_solution(p, order=8)
    assert verify_homogeneous(pair, 8).is_zero()
    assert pair.F.component(1) == Y.scaled(Fraction(1, 2))
    assert pair.G.component(1) == X.scaled(Fraction(1, 2))


def test_homogeneous_solution_zero_case():
    lam1, lam2 = Fraction(3), Fraction(-2, 5)
    pair = homogeneous_solution(NCPoly.zero(XY), lam1, lam2, order=5)
    assert pair.F == GradedSeries.generator(XY, "x", 5).scaled(lam1)
    assert pair.G == GradedSeries.generator(XY, "y", 5).scaled(lam2)
    assert verify_homogeneous(pair, 5).is_zero()


def test_homogeneous_solution_requires_kernel():
    with pytest.raises(ValueError):
        homogeneous_solution(parse_poly(XY, "xy"), order=4)


def test_homogeneous_solutions_from_kernel_basis():
    for n in (2, 3, 4):
        for p in dynkin_kernel_basis(XY, n):
            pair = homogeneous_solution(p, order=6)
            assert verify_homogeneous(pair, 6).is_zero()


def test_vergne_example():
    def br(*args):
        if len(args) == 1:
            return args[0]
        return bracket(args[0], br(*args[1:]))

    P = (
        br(X, Y, X, X, Y)
        - br(Y, X, X, X, Y).scaled(2)
        - br(Y, Y, Y, Y, X)
    )
    assert P
    Pn = substitute(P, NEGATE_SWAP)
    assert not bracket(X, P) + bracket(Y, Pn)
    p = concat(X, P) + concat(Y, Pn)
    assert not dynkin(p)
    # a sparse certificate exhibiting kernel membership, p = q - gamma(q);
    # the -8*xyxxxy term is pinned as the unique single-word completion of
    # the other 21 terms
    q = parse_poly(
        XY,
        "2*xxxxyy - 8*xxxyxy + xxxyyx + 12*xxyxxy - 4*xxyxyx + xxyyxx"
        " - 2*xxyyyy - 8*xyxxxy + 6*xyxxyx - 4*xyxyxx + xyyxxx + 8*xyxyyy"
        " - 12*xyyxyy + 8*xyyyxy - xyyyyx + yxxxxy - yxxyyy + 4*yxyxyy"
        " - 6*yxyyxy - yyxxyy + 4*yyxyxy - yyyxxy",
    )
    assert p == q - dynkin(q)
    # and the corresponding pair solves the homogeneous equation
    pair = homogeneous_solution(p, order=8)
    assert verify_homogeneous(pair, 8).is_zero()
    assert psi(q, "x") == P


# -- all solutions -----------------------------------------------------------------------


def test_general_solution_zero_is_particular():
    pair = general_solution(NCPoly.zero(XY), order=5)
    assert pair.F == f0(5)
    assert pair.G == g0(5)


@pytest.mark.parametrize("order", [3, 8, 11])
def test_lie_polynomial_adds_no_homogeneous_operator(monkeypatch, order):
    # a Lie p has the zero kernel element p - gamma(p): the pair is F0, G0 plus the
    # lambda terms, built with no Bernoulli weight and no operator on a zero series
    expected = particular_solution(order)
    real = series._ad_sum

    def spy(order, terms):
        assert all(s for _, _, s in terms), "an operator ran on a zero series"
        return real(order, terms)

    def forbidden(*args):
        raise AssertionError("a Bernoulli operator ran for a zero kernel element")

    for module in (series, kv):
        monkeypatch.setattr(module, "_ad_sum", spy)
    monkeypatch.setattr(kv, "_bernoulli_weights", forbidden)
    for p in (NCPoly.zero(XY), X, parse_poly(XY, "xy - yx")):
        assert general_solution(p, order=order) == expected
    pair = general_solution(NCPoly.zero(XY), Fraction(1, 2), -3, order)
    assert pair.F.component(1) - expected.F.component(1) == X.scaled(Fraction(1, 2))
    assert pair.G.component(1) - expected.G.component(1) == Y.scaled(-3)
    assert [pair.F.component(d) for d in range(2, order + 1)] == list(expected.F.parts[2:])
    assert [pair.G.component(d) for d in range(2, order + 1)] == list(expected.G.parts[2:])


def test_general_solution_arbitrary_polynomials():
    rng = random.Random(41)
    order = 6
    for _ in range(4):
        terms = {
            tuple(rng.randrange(2) for _ in range(rng.randint(1, 5))): Fraction(
                rng.randint(-3, 3)
            )
            for _ in range(3)
        }
        p = NCPoly(XY, terms)
        pair = general_solution(p, Fraction(1, 2), Fraction(-1, 3), order)
        assert verify_kv1(pair, order).is_zero()


def test_general_solution_matches_kernel_route():
    # for q already in the kernel, the Psi projection is the identity on the
    # letter parts, so both parameterisations produce the same correction
    q = patras_reutenauer_generator(parse_poly(XY, "xy"))
    assert not dynkin(q)
    order = 6
    via_psi = general_solution(q, order=order)
    hom = homogeneous_solution(q, order=order)
    assert via_psi.F == f0(order) + hom.F
    assert via_psi.G == g0(order) + hom.G


def test_antisymmetric_kernel_element():
    A = antisymmetric_kernel_element(X)
    assert A == parse_poly(XY, "xx - yy")
    assert not dynkin(A)
    rng = random.Random(42)
    for _ in range(8):
        d = rng.randint(1, 3)
        terms = {
            tuple(rng.randrange(2) for _ in range(d)): Fraction(rng.randint(-2, 2))
            for _ in range(3)
        }
        p = NCPoly(XY, terms)
        if not p:
            continue
        A = antisymmetric_kernel_element(p)
        assert not dynkin(A)
        assert substitute(A, NEGATE_SWAP) == -A
    # a swap-negate symmetric input still produces an antisymmetric element
    sym = parse_poly(XY, "xy") - substitute(parse_poly(XY, "xy"), NEGATE_SWAP)
    assert substitute(sym, NEGATE_SWAP) == -sym  # antisymmetric, in fact
    A = antisymmetric_kernel_element(parse_poly(XY, "x") + parse_poly(XY, "-y"))
    assert substitute(A, NEGATE_SWAP) == -A
    with pytest.raises(ValueError):
        antisymmetric_kernel_element(parse_poly(XY, "x + xy"))


def test_homogeneous_truncated_solution_space_dimensions():
    # order-3 truncation: unknown Lie components (F1, F2, G1, G2), constraints
    # are the degree-2 and degree-3 components of E(-x)F - E(y)G
    slots = []
    for degree in (1, 2):
        for lw in lyndon_words(XY, degree):
            slots.append((degree, lw))
    columns = []
    for side in range(2):
        for degree, word in slots:
            F = GradedSeries.zero(XY, 3)
            G = GradedSeries.zero(XY, 3)
            series = GradedSeries.from_poly(standard_bracketing(XY, word), 3)
            if side == 0:
                F = series
            else:
                G = series
            defect = verify_homogeneous(KvSolutionPair(F, G), 3)
            vec = []
            for m in (2, 3):
                comp = defect.component(m)
                vec.extend(comp.coefficient(w) for w in product(range(2), repeat=m))
            columns.append(vec)
    matrix = [[col[r] for col in columns] for r in range(len(columns[0]))]
    truncated_dim = nullspace_dimension(matrix)

    def flatten(pair):
        vec = []
        for series in (pair.F, pair.G):
            for degree, word in slots:
                lc = to_lie_coordinates(series.component(degree))
                vec.append(lc.coords.get(word, Fraction(0)))
        return vec

    generators = []
    for n in (2, 3):
        for p in dynkin_kernel_basis(XY, n):
            generators.append(flatten(homogeneous_solution(p, order=2)))
    generators.append(
        flatten(homogeneous_solution(NCPoly.zero(XY), Fraction(1), Fraction(0), 2))
    )
    generators.append(
        flatten(homogeneous_solution(NCPoly.zero(XY), Fraction(0), Fraction(1), 2))
    )
    assert truncated_dim == rank(generators) == 3


# -- multilinear --------------------------------------------------------------------------


def test_multilinear_bch_reduces_to_two_variables():
    assert bch_eulerian(5, 2) == bch_oracle(5)
    with pytest.raises(ValueError, match="at least two variables"):
        multilinear_particular_solution(1, 3)
    with pytest.raises(ValueError, match="at least two variables"):
        multilinear_f0(1, 1, 3)


def test_multilinear_bch_three_variables():
    A3 = default_alphabet(3)
    phi = bch_eulerian(3, 3)
    x1 = NCPoly.letter(A3, "x")
    x2 = NCPoly.letter(A3, "y")
    x3 = NCPoly.letter(A3, "z")
    assert phi.component(1) == x1 + x2 + x3
    expected2 = (
        bracket(x1, x2) + bracket(x1, x3) + bracket(x2, x3)
    ).scaled(Fraction(1, 2))
    assert phi.component(2) == expected2
    assert phi == bch_oracle(3, 3)


def test_multilinear_defect_vanishes():
    sols = multilinear_particular_solution(3, 4)
    assert verify_multilinear(sols, 4).is_zero()
    for F in sols:
        for d in range(1, 5):
            assert is_lie_element(F.component(d))


def test_multilinear_zero_tuple_defect():
    A3 = default_alphabet(3)
    zeros = [GradedSeries.zero(A3, 4) for _ in range(3)]
    defect = verify_multilinear(zeros, 4)
    assert not defect.is_zero()
    reversed_phi = kv._reversed_tail(4, 3)
    for m in range(2, 5):
        assert defect.component(m) == reversed_phi.component(m)


def test_g0_is_the_negated_swap_by_reversal():
    # component d of F(-y, -x) is (-1)^d times the reversed vector on the
    # index over x and y; a series over one letter is put on that index first
    for n in range(1, 13):
        assert g0(n) == f0(n).substitute(NEGATE_SWAP)
    for text in ("-1/5 + 2/3*x + xxx - 7*xxxx", "3/4*y - yy"):
        s = GradedSeries.from_poly(parse_poly(XY, text), 5)
        assert len(s.letters) == 1
        assert kv._negate_swap(s) == s.substitute(NEGATE_SWAP)


@pytest.mark.parametrize("n", [4, 8, 11])
def test_f0_and_g0_are_the_two_variable_multilinear_solution(n):
    # pins the sign convention of G0: the multilinear F_2 is -G0
    assert f0(n) == multilinear_f0(1, 2, n)
    assert g0(n) == -multilinear_f0(2, 2, n)


def test_multilinear_two_variable_reduction():
    sols = multilinear_particular_solution(2, 6)
    assert sols[0] == f0(6)
    assert sols[1] == -g0(6)
    assert verify_multilinear(sols, 6).is_zero()


def test_multilinear_index_validation():
    with pytest.raises(ValueError):
        multilinear_f0(0, 3, 3)
    with pytest.raises(ValueError):
        multilinear_f0(4, 3, 3)
