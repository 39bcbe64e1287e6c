"""e A^-1 read off the Smith form U A V = S of an integer matrix A, as
V diag(e / d_k) U with e = d_n (`conftest.scaled_inverse`), against A^-1 in
exact rationals; the singular and non-integer matrices that
`LatticeQuotient` rejects before any pairing is formed; and the pairings
that `type_lattices` reads off the Smith coordinates, against A^-1 in
rationals and, to the largest rank, against an integer certificate."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from conftest import scaled_inverse

from bundleaut.finabel import LatticeQuotient, smith_normal_form
from bundleaut.groupclass import type_lattices
from bundleaut.rootdata import MAX_RANK, ConsistencyError, admissible_types, build_root_datum


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
        s, u, v = smith_normal_form(a)
        d = [s[k][k] for k in range(n)]
        if not all(d):  # singular
            continue
        inv, e = scaled_inverse(a)
        assert mat_mul(a, inv) == scalar(n, e)
        assert mat_mul(inv, a) == scalar(n, e)
        assert all(type(x) is int for row in inv for x in row)
        # e is the least scale that makes A^-1 integral
        assert gcd(e, *(x for row in inv for x in row)) == 1
        # one vector at a time, x = e A^-1 w = V diag(e / d_k) (U w): A x = e w
        assert d[-1] == e
        w = [rng.randint(-5, 5) for _ in range(n)]
        uw = [e // dk * sum(c * y for c, y in zip(row, w)) for dk, row in zip(d, u)]
        x = [sum(c * y for c, y in zip(row, uw)) for row in v]
        assert [sum(c * y for c, y in zip(row, x)) for row in a] == [e * c for c in w]
        inverted += 1
    assert inverted > 400


@pytest.mark.parametrize("t", admissible_types(16))
def test_inverse_cartan(t):
    cartan = build_root_datum(t).cartan
    inv, e = scaled_inverse(cartan)
    assert mat_mul(cartan, inv) == scalar(t.rank, e)


def test_pivot_needs_a_row_swap():
    assert scaled_inverse([[0, 1], [1, 0]]) == ([[0, 1], [1, 0]], 1)
    # A^-1 = ((-1/6, 1/3), (1/2, 0))
    assert scaled_inverse([[0, 2], [3, 1]]) == ([[-1, 2], [3, 0]], 6)


@pytest.mark.parametrize("a", [[[0]], [[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]])
def test_singular_matrix_is_rejected(a):
    # `type_lattices` builds both quotients of A before it pairs them
    with pytest.raises(ConsistencyError, match="relations do not span a full-rank lattice"):
        LatticeQuotient(a)


def test_non_integer_entry_is_rejected():
    for a in ([[Fraction(1, 2)]], [[1, 0], [0, Fraction(1, 2)]], [[2, -1], [-1, 2.0]]):
        with pytest.raises(ConsistencyError, match="relations must be integer vectors"):
            LatticeQuotient(a)


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


def test_pairings_have_an_integer_certificate():
    # to the largest rank: for each lift w of P/Q an integer x with A x = e w
    # certifies e <w, z> = e z^T A^-1 w = z . x, so each stored pairing is
    # z . x mod e, however x was found (here as V diag(e / d_k) (U w))
    types = admissible_types(MAX_RANK)
    assert len(types) == 318
    for t in types:
        lat = type_lattices(t)
        a, e = lat.cartan, lat.exponent
        s, u, v = smith_normal_form(a)
        d = [s[k][k] for k in range(t.rank)]
        for w, row in zip(lat.chars.generator_lifts, lat.pairings):
            uw = [e // dk * sum(c * y for c, y in zip(r, w)) for dk, r in zip(d, u)]
            x = [sum(c * y for c, y in zip(r, uw)) for r in v]
            assert [sum(c * y for c, y in zip(r, x)) for r in a] == [e * c for c in w], t
            assert row == tuple(sum(c * y for c, y in zip(z, x)) % e
                                for z in lat.center.generator_lifts), t
        assert len(lat.pairings) == len(lat.chars.generator_lifts)
