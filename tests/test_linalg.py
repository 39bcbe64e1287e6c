"""The inverse of an integer matrix as the integer matrix N = e A^-1, read off
its Smith form: N = V diag(e / d_k) U with e = d_n."""

import random
from fractions import Fraction
from math import gcd

import pytest

from bundleaut.finabel import smith_normal_form
from bundleaut.linalg import LinAlgError, scaled_inverse
from bundleaut.rootdata import admissible_types, build_root_datum


def inverse(a):
    return scaled_inverse(smith_normal_form(a))


def scalar(n, e):
    return [[e * int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_inverse_of_random_integer_matrices():
    rng = random.Random(4)
    inverted = 0
    for _ in range(500):
        n = rng.randint(1, 7)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        try:
            inv, e = inverse(a)
        except LinAlgError:
            continue
        assert mat_mul(a, inv) == scalar(n, e)
        assert mat_mul(inv, a) == scalar(n, e)
        assert all(type(x) is int for row in inv for x in row)
        # e is the least scale that makes A^-1 integral
        assert gcd(e, *(x for row in inv for x in row)) == 1
        inverted += 1
    assert inverted > 400


@pytest.mark.parametrize("t", admissible_types(8))
def test_inverse_cartan(t):
    cartan = build_root_datum(t).cartan
    inv, e = inverse(cartan)
    assert mat_mul(cartan, inv) == scalar(t.rank, e)


def test_pivot_needs_a_row_swap():
    assert inverse([[0, 1], [1, 0]]) == ([[0, 1], [1, 0]], 1)
    # A^-1 = ((-1/6, 1/3), (1/2, 0))
    assert inverse([[0, 2], [3, 1]]) == ([[-1, 2], [3, 0]], 6)


@pytest.mark.parametrize("a", [[[0]], [[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]])
def test_singular_matrix_is_rejected(a):
    with pytest.raises(LinAlgError):
        inverse(a)


def test_non_integer_entry_is_rejected():
    for a in ([[Fraction(1, 2)]], [[1, 0], [0, Fraction(1, 2)]], [[2, -1], [-1, 2.0]]):
        with pytest.raises(TypeError):
            inverse(a)
