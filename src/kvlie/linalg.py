"""Small exact linear algebra over the rationals.

Dense matrices as lists of Fraction rows; just enough Gaussian elimination
for the degree-wise solves and dimension counts of :mod:`kvlie.oracles`
(oracle support: no production module imports this module).  Row
order is processed deterministically, so results are reproducible.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]

_ZERO = Fraction(0)


def _clone(matrix) -> Matrix:
    return [[Fraction(v) for v in row] for row in matrix]


def rref(matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = _clone(matrix)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(matrix) -> int:
    if not matrix:
        return 0
    return len(rref(matrix)[1])


def nullspace_dimension(matrix) -> int:
    """Dimension of {v : matrix @ v = 0} (columns are the unknowns)."""
    if not matrix:
        return 0
    return len(matrix[0]) - rank(matrix)


def nullspace_basis(matrix) -> list[list[Fraction]]:
    m, pivots = rref(matrix)
    cols = len(matrix[0]) if matrix else 0
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [_ZERO] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


class InconsistentSystem(ValueError):
    pass


def solve_affine(matrix, rhs) -> tuple[list[Fraction], list[list[Fraction]]]:
    """All solutions of matrix @ v = rhs: a particular solution (free
    variables set to zero) together with a nullspace basis.

    Raises :class:`InconsistentSystem` when there is no solution.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    augmented = [list(row) + [Fraction(b)] for row, b in zip(matrix, rhs)]
    m, pivots = rref(augmented)
    if cols in pivots:
        raise InconsistentSystem("linear system has no solution")
    particular = [_ZERO] * cols
    for r, pc in enumerate(pivots):
        particular[pc] = m[r][cols]
    return particular, nullspace_basis([row[:cols] for row in matrix])


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
