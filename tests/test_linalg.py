from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from kvlie.linalg import nullspace_dimension, rank

# few distinct values, so that dependent rows and columns are common
ENTRIES = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    return [draw(st.lists(ENTRIES, min_size=cols, max_size=cols)) for _ in range(rows)]


@given(matrices())
def test_rank_is_the_rank_of_the_transpose_and_complements_the_nullity(m):
    transpose = [list(col) for col in zip(*m)]
    assert rank(m) == rank(transpose)
    assert rank(m) + nullspace_dimension(m) == len(m[0])


def test_empty_matrix_has_rank_and_nullity_zero():
    assert rank([]) == nullspace_dimension([]) == 0
