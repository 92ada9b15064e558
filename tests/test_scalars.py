import random
from fractions import Fraction
from math import comb

import pytest

from kvlie.scalars import bernoulli, moebius


def bernoulli_akiyama_tanigawa(n):
    """Independent oracle: Akiyama-Tanigawa transform, B1 = +1/2 convention."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


def test_bernoulli_low_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_matches_akiyama_tanigawa():
    oracle = bernoulli_akiyama_tanigawa(16)
    for k in range(17):
        expected = -oracle[k] if k == 1 else oracle[k]
        assert bernoulli(k) == expected


def test_bernoulli_recurrence_and_odd_zeros():
    for m in range(1, 20):
        assert sum(Fraction(comb(m + 1, j)) * bernoulli(j) for j in range(m + 1)) == 0
    for k in range(3, 25, 2):
        assert bernoulli(k) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_moebius():
    assert moebius(1) == 1
    assert moebius(2) == -1
    assert moebius(4) == 0
    assert moebius(6) == 1
    assert moebius(30) == -1
    assert moebius(12) == 0
    with pytest.raises(ValueError):
        moebius(0)
    # sum over divisors is the unit indicator
    for n in range(2, 60):
        assert sum(moebius(d) for d in range(1, n + 1) if n % d == 0) == 0


def test_rational_arithmetic_is_exact():
    rng = random.Random(1234)
    for _ in range(300):
        a = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        b = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        assert (a + b) - b == a
        assert a.denominator > 0

