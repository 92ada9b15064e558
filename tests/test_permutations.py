import pytest

from kvlie.permutations import (
    Permutation,
    compose,
    descent_count,
    descent_set,
    enumerate_descent_class,
    enumerate_sn,
    identity,
    inverse,
    reversal,
)


def eulerian_numbers(n):
    """Oracle by the triangle recurrence A(n, d) = (d+1)A(n-1, d) + (n-d)A(n-1, d-1)."""
    row = [1]
    for m in range(2, n + 1):
        row = [
            (d + 1) * (row[d] if d < len(row) else 0)
            + (m - d) * (row[d - 1] if d >= 1 else 0)
            for d in range(m)
        ]
    return row


def test_descent_examples():
    assert descent_set(Permutation((2, 1, 3))) == {1}
    assert descent_count(Permutation((2, 1, 3))) == 1
    assert descent_set(identity(4)) == frozenset()
    assert descent_count(reversal(5)) == 4


def test_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


def test_enumerate_sn():
    elems = list(enumerate_sn(3))
    assert len(elems) == 6
    assert elems[0] == identity(3)
    assert [p.images for p in elems] == sorted(p.images for p in elems)


def test_descent_class_brute_force():
    for n in range(1, 8):
        by_class = {k: set(p.images for p in enumerate_descent_class(n, k)) for k in range(n)}
        for sigma in enumerate_sn(n):
            staircase = next(
                (k for k in range(n) if sigma.descent_set == frozenset(range(1, k + 1))),
                None,
            )
            if staircase is not None:
                assert sigma.images in by_class[staircase]
                by_class[staircase].discard(sigma.images)
        assert all(not leftovers for leftovers in by_class.values())


def test_descent_class_examples():
    assert {p.images for p in enumerate_descent_class(3, 1)} == {(2, 1, 3), (3, 1, 2)}
    assert list(enumerate_descent_class(4, 0)) == [identity(4)]
    for n in range(2, 7):
        assert list(enumerate_descent_class(n, n - 1)) == [reversal(n)]
    with pytest.raises(ValueError):
        list(enumerate_descent_class(3, 3))


def test_group_laws():
    sigma = Permutation((3, 1, 4, 2))
    tau = Permutation((2, 3, 4, 1))
    assert compose(sigma, inverse(sigma)) == identity(4)
    assert compose(inverse(sigma), sigma) == identity(4)
    assert compose(sigma, identity(4)) == sigma
    # composition acts as expected: (sigma o tau)(i) = sigma(tau(i))
    for i in range(1, 5):
        assert compose(sigma, tau)(i) == sigma(tau(i))
    with pytest.raises(ValueError):
        compose(sigma, identity(3))


def test_reversal_composition_descents():
    for n in (3, 4):
        omega = reversal(n)
        for sigma in enumerate_sn(n):
            assert descent_count(compose(omega, sigma)) == n - 1 - descent_count(sigma)


def test_eulerian_distribution():
    for n in range(1, 8):
        counts = [0] * n
        for sigma in enumerate_sn(n):
            counts[sigma.descent_count()] += 1
        assert counts == eulerian_numbers(n)


def test_repr():
    sigma = Permutation((2, 1, 3))
    assert repr(sigma) == "(2,1,3)"
