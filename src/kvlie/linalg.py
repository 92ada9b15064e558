"""Small exact linear algebra over the rationals.

One fraction-free Gaussian elimination, ``independent_subset``, over rows of
rationals; ranks and nullspace dimensions for the dimension counts of
:mod:`kvlie.oracles` are read from it (oracle support: no production module
imports this module).  Rows are scanned in order, so results are
reproducible.
"""

from __future__ import annotations

from math import gcd, lcm


def independent_subset(vectors) -> list[int]:
    """Indices of a maximal linearly independent subset, scanning in order.

    Each row (of ints or Fractions) is cleared to integers over the lcm of its
    denominators, reduced by b*row - a*brow against each kept row brow with
    pivot entry b, and divided by its content.  Each reduced row is a nonzero
    multiple of the one that elimination over the rationals gives, so the same
    indices are kept, and no Fraction is built.
    """
    basis: list[tuple[int, list[int]]] = []  # (pivot column, reduced row)
    keep: list[int] = []
    for idx, vec in enumerate(vectors):
        scale = lcm(*(v.denominator for v in vec))
        row = [v.numerator * (scale // v.denominator) for v in vec]
        for pc, brow in basis:
            a = row[pc]
            if a:
                b = brow[pc]
                g = gcd(a, b)
                a, b = a // g, b // g
                row = [b * r - a * s for r, s in zip(row, brow)]
        pivot = next((c for c, v in enumerate(row) if v), None)
        if pivot is None:
            continue
        content = gcd(*row)
        basis.append((pivot, [v // content for v in row]))
        keep.append(idx)
    return keep


def rank(matrix) -> int:
    return len(independent_subset(matrix))


def nullspace_dimension(matrix) -> int:
    """Dimension of {v : matrix @ v = 0} (columns are the unknowns)."""
    if not matrix:
        return 0
    return len(matrix[0]) - rank(matrix)
