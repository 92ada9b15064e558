"""Small exact linear algebra over the rationals.

One Gaussian elimination, ``independent_subset``, over rows of rationals;
ranks and nullspace dimensions for the dimension counts of
:mod:`kvlie.oracles` are read from it (oracle support: no production module
imports this module).  Rows are scanned in order, so results are
reproducible.
"""

from __future__ import annotations

from fractions import Fraction


def independent_subset(vectors) -> list[int]:
    """Indices of a maximal linearly independent subset, scanning in order."""
    if not vectors:
        return []
    cols = len(vectors[0])
    basis: list[tuple[int, list[Fraction]]] = []  # (pivot column, reduced row)
    keep: list[int] = []
    for idx, vec in enumerate(vectors):
        row = [Fraction(v) for v in vec]
        for pc, bvec in basis:
            if row[pc]:
                factor = row[pc]
                row = [a - factor * b for a, b in zip(row, bvec)]
        pivot = next((c for c in range(cols) if row[c]), None)
        if pivot is None:
            continue
        inv = 1 / row[pivot]
        row = [v * inv for v in row]
        basis.append((pivot, row))
        keep.append(idx)
    return keep


def rank(matrix) -> int:
    return len(independent_subset(matrix))


def nullspace_dimension(matrix) -> int:
    """Dimension of {v : matrix @ v = 0} (columns are the unknowns)."""
    if not matrix:
        return 0
    return len(matrix[0]) - rank(matrix)
