import itertools

import pytest

from kvlie.permutations import _SN_TABLE_LIMIT, descent_class_images, sn_with_descents


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
    counts = dict(sn_with_descents(3))
    assert counts[(2, 1, 3)] == 1
    assert counts[(1, 3, 2)] == 1
    assert dict(sn_with_descents(4))[(1, 2, 3, 4)] == 0
    assert dict(sn_with_descents(5))[(5, 4, 3, 2, 1)] == 4


def test_validation():
    for n in range(1, 6):
        for k in (-1, n):
            with pytest.raises(ValueError):
                descent_class_images(n, k)


def test_enumerate_sn():
    elems = [images for images, _ in sn_with_descents(3)]
    assert len(elems) == 6
    assert elems[0] == (1, 2, 3)
    assert elems == sorted(elems)


def test_descent_class_brute_force():
    for n in range(1, 8):
        by_class = {k: set(descent_class_images(n, k)) for k in range(n)}
        for images in itertools.permutations(range(1, n + 1)):
            descents = frozenset(i for i in range(1, n) if images[i - 1] > images[i])
            staircase = next((k for k in range(n) if descents == frozenset(range(1, k + 1))), None)
            if staircase is not None:
                assert images in by_class[staircase]
                by_class[staircase].discard(images)
        assert all(not leftovers for leftovers in by_class.values())


def test_descent_class_examples():
    assert descent_class_images(3, 1) == ((2, 1, 3), (3, 1, 2))
    assert descent_class_images(4, 0) == ((1, 2, 3, 4),)
    for n in range(2, 7):
        assert descent_class_images(n, n - 1) == (tuple(range(n, 0, -1)),)
    with pytest.raises(ValueError):
        descent_class_images(3, 3)


def test_eulerian_distribution():
    # S_n in lexicographic order with its descent counts, from the cached
    # table up to _SN_TABLE_LIMIT and from the lazy generator above it
    for n in range(1, _SN_TABLE_LIMIT + 2):
        letters = set(range(1, n + 1))
        previous, counts = (), [0] * n
        for images, d in sn_with_descents(n):
            assert previous < images and set(images) == letters
            previous = images
            counts[d] += 1
        assert counts == eulerian_numbers(n)


def test_reversal_composition_descents():
    # composing with the reversal on the left sends sigma(i) to n + 1 - sigma(i),
    # which turns every descent into an ascent and back
    for n in (3, 4):
        counts = dict(sn_with_descents(n))
        for images, d in counts.items():
            assert counts[tuple(n + 1 - v for v in images)] == n - 1 - d
