"""e A^-1 applied to vectors, read off the Smith form of an integer matrix A:
e A^-1 w = V diag(e / d_k) (U w) with e = d_n (`finabel.scaled_solve`), and
the pairings that `type_lattices` reads off it, against A^-1 in exact
rationals."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from conftest import unit

from bundleaut.finabel import scaled_solve, smith_normal_form
from bundleaut.groupclass import type_lattices
from bundleaut.rootdata import ConsistencyError, admissible_types, build_root_datum


def inverse(a):
    """(N, e) with N = e A^-1, column i being e A^-1 applied to e_i."""
    n = len(a)
    columns, e = scaled_solve(smith_normal_form(a), [unit(n, i) for i in range(n)])
    return [list(row) for row in zip(*columns)], e


def scalar(n, e):
    return [[e * int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def rational_inverse(a):
    """A^-1 by Gauss-Jordan elimination over Fraction."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def test_inverse_of_random_integer_matrices():
    rng = random.Random(4)
    inverted = 0
    for _ in range(500):
        n = rng.randint(1, 7)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        try:
            inv, e = inverse(a)
        except ConsistencyError:
            continue
        assert mat_mul(a, inv) == scalar(n, e)
        assert mat_mul(inv, a) == scalar(n, e)
        assert all(type(x) is int for row in inv for x in row)
        # e is the least scale that makes A^-1 integral
        assert gcd(e, *(x for row in inv for x in row)) == 1
        # one vector at a time, as `type_lattices` uses it: A x = e w
        w = [rng.randint(-5, 5) for _ in range(n)]
        (x,), e_w = scaled_solve(smith_normal_form(a), [w])
        assert e_w == e
        assert [sum(c * y for c, y in zip(row, x)) for row in a] == [e * c for c in w]
        inverted += 1
    assert inverted > 400


@pytest.mark.parametrize("t", admissible_types(16))
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
    with pytest.raises(ConsistencyError, match="matrix is singular"):
        inverse(a)


def test_non_integer_entry_is_rejected():
    for a in ([[Fraction(1, 2)]], [[1, 0], [0, Fraction(1, 2)]], [[2, -1], [-1, 2.0]]):
        with pytest.raises(ConsistencyError, match="matrix entries must be integers"):
            inverse(a)


@pytest.mark.parametrize("t", admissible_types(16), ids=lambda t: t.label)
def test_pairings_match_a_rational_inverse(t):
    # <w, z> = z^T A^-1 w for a lift w of P/Q and a lift z of P^vee/Q^vee;
    # the stored pairing is e <w, z> mod e, e the least common denominator
    # of A^-1
    lat = type_lattices(t)
    inv = rational_inverse(lat.cartan)
    assert lat.exponent == lcm(*(x.denominator for row in inv for x in row))
    for w, row in zip(lat.chars.generator_lifts, lat.pairings):
        value = [lat.exponent * sum(z[i] * inv[i][j] * w[j]
                                    for i in range(t.rank) for j in range(t.rank))
                 for z in lat.center.generator_lifts]
        assert all(v.denominator == 1 for v in value)
        assert row == tuple(int(v) % lat.exponent for v in value)
    assert len(lat.pairings) == len(lat.chars.generator_lifts)
