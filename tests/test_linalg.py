"""The exact inverse of an integer matrix, A^-1 = V S^-1 U read off its Smith
form."""

import random
from fractions import Fraction

import pytest

from bundleaut.linalg import LinAlgError, invert
from bundleaut.rootdata import admissible_types, build_root_datum


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def test_inverse_of_random_integer_matrices():
    rng = random.Random(4)
    inverted = 0
    for _ in range(500):
        n = rng.randint(1, 7)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        try:
            inv = invert(a)
        except LinAlgError:
            continue
        assert mat_mul(a, inv) == identity(n)
        assert mat_mul(inv, a) == identity(n)
        assert all(isinstance(x, Fraction) for row in inv for x in row)
        inverted += 1
    assert inverted > 400


@pytest.mark.parametrize("t", admissible_types(8))
def test_inverse_cartan(t):
    cartan = build_root_datum(t).cartan
    assert mat_mul(cartan, invert(cartan)) == identity(t.rank)


def test_pivot_needs_a_row_swap():
    assert invert([[0, 1], [1, 0]]) == ((0, 1), (1, 0))
    assert invert([[0, 2], [3, 1]]) == (
        (Fraction(-1, 6), Fraction(1, 3)), (Fraction(1, 2), Fraction(0)))


@pytest.mark.parametrize("a", [[[0]], [[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]])
def test_singular_matrix_is_rejected(a):
    with pytest.raises(LinAlgError):
        invert(a)


def test_non_integer_entry_is_rejected():
    with pytest.raises(TypeError):
        invert([[Fraction(1, 2)]])
