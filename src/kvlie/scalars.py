"""Exact scalar arithmetic: rationals, Bernoulli numbers, and small number theory
(the Moebius function, Witt's dimension formula).

All scalars in this package are exact rationals, :class:`fractions.Fraction`.
Polynomials keep integer numerators over one reduced denominator instead
(:class:`kvlie.algebra.NCPoly`).

Bernoulli numbers follow the generating function t/(e^t - 1), i.e. B1 = -1/2.
This is the convention under which the operator series Ber(x) = sum_k B_k
ad(x)^k / k! is a two-sided inverse of E(x) = exp(ad x) - 1 up to ad(x); that
identity is what the test suite uses to pin the sign convention.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number, convention t/(e^t - 1) (so bernoulli(1) == -1/2).

    Computed by the recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1.
    The prefix is read in increasing index order, so every call below this
    one finds its own prefix cached and the recursion is one level deep.
    """
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if k == 0:
        return Fraction(1)
    prefix = [bernoulli(j) for j in range(k)]
    return -sum(math.comb(k + 1, j) * b for j, b in enumerate(prefix)) / (k + 1)


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


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" (optional sign) into an exact rational.  Each digit run
    (underscores may join its digits) is held to Python's default int-to-str
    limit whatever limit is set."""
    try:
        if any(len(run) > sys.int_info.default_max_str_digits
               for run in re.findall(r"\d+", text.replace("_", ""))):
            raise ValueError("too many digits")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal {text!r}") from exc
