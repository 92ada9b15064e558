"""Exact scalars: Bernoulli numbers and small number theory (the Moebius
function, Witt's dimension formula).

Every kernel computes a rational as an integer numerator over a positive
denominator, as polynomials and series store theirs
(:class:`kvlie.algebra.NCPoly`); :class:`fractions.Fraction` values are built
only where the public API returns one, such as :func:`bernoulli`.

Bernoulli numbers follow the generating function t/(e^t - 1), i.e. B1 = -1/2.
This is the convention under which the operator series Ber(x) = sum_k B_k
ad(x)^k / k! is a two-sided inverse of E(x) = exp(ad x) - 1 up to ad(x); that
identity is what the test suite uses to pin the sign convention.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


@lru_cache(maxsize=None)
def _bernoulli(k: int) -> tuple[int, int]:
    """(numerator, denominator) of the k-th Bernoulli number in lowest terms, by
    sum_{j=0}^{m} C(m+1, j) B_j = 0 (m >= 1) over the lcm of the prefix
    denominators, read in increasing index order: every call below this one
    finds its prefix cached, so the recursion is one level deep."""
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if k == 0:
        return 1, 1
    prefix = [_bernoulli(j) for j in range(k)]
    common = math.lcm(*(d for _, d in prefix))
    total = -sum(math.comb(k + 1, j) * n * (common // d) for j, (n, d) in enumerate(prefix))
    g = math.gcd(total, common * (k + 1))
    return total // g, common * (k + 1) // g


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number, convention t/(e^t - 1) (so bernoulli(1) == -1/2)."""
    from fractions import Fraction  # here only: the kernels read _bernoulli
    return Fraction(*_bernoulli(k))


def moebius(n: int) -> int:
    """Moebius function mu(n), by trial-division factorisation."""
    if n < 1:
        raise ValueError("moebius requires n >= 1")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def witt_dimension(k: int, n: int) -> int:
    """dim of the degree-n piece of the free Lie algebra on k letters:
    (1/n) sum_{d | n} mu(d) k^(n/d)."""
    if k < 1 or n < 1:
        raise ValueError("witt_dimension requires k >= 1 and n >= 1")
    total = sum(moebius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n

