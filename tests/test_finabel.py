"""Smith normal form, lattice quotients, finite abelian groups, subgroups."""

import random
from fractions import Fraction

import pytest

from bundleaut.finabel import (
    FiniteAbelianGroup,
    LatticeError,
    Subgroup,
    closure,
    enumerate_subgroups,
    lattice_quotient,
    smith_normal_form,
)
from bundleaut.rootdata import DynkinType, build_root_datum


def mat_mul_int(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def int_det(m):
    """Determinant by exact rational elimination."""
    rows = [[Fraction(x) for x in row] for row in m]
    n = len(rows)
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = -result
        result *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def unit(n, i):
    """omega_i in fundamental-weight coordinates."""
    return tuple(1 if j == i else 0 for j in range(n))


def root_relations(t):
    """The simple roots in fundamental-weight coordinates: the columns of
    the Cartan matrix, so that Z^r / rows is P/Q."""
    return list(zip(*build_root_datum(t).cartan))


def element_order(group, x):
    n, y = 1, group.reduce(x)
    while any(y):
        y, n = group.add(y, x), n + 1
    return n


def from_coords(sub, coords):
    """sum(c_i * basis_i) in the ambient group of a Subgroup."""
    elt = sub.ambient.zero()
    for c, b in zip(coords, sub.basis):
        for _ in range(c):
            elt = sub.ambient.add(elt, b)
    return elt


def check_snf(m):
    s, u, v, vinv = smith_normal_form(m)
    assert mat_mul_int(mat_mul_int(u, m), v) == s
    assert abs(int_det(u)) == 1
    assert abs(int_det(v)) == 1
    assert mat_mul_int(v, vinv) == [[int(i == j) for j in range(len(v))] for i in range(len(v))]
    diag = [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]
    for i in range(len(s)):
        for j in range(len(s[0]) if s else 0):
            if i != j:
                assert s[i][j] == 0
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return diag


def test_snf_identity():
    assert check_snf([[1, 0], [0, 1]]) == [1, 1]


def test_snf_cartan_a2():
    # P/Q of A_2 is Z/3
    assert check_snf([[2, -1], [-1, 2]]) == [1, 3]


def test_snf_cartan_d4():
    rd = build_root_datum(DynkinType("D", 4))
    diag = check_snf([list(r) for r in rd.cartan])
    assert diag == [1, 1, 2, 2]


def test_snf_round_trip_randomized():
    rng = random.Random(20240917)
    for _ in range(120):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        check_snf(m)


def test_snf_zero_matrix():
    s, u, v, vinv = smith_normal_form([[0, 0], [0, 0]])
    assert s == [[0, 0], [0, 0]]
    assert abs(int_det(u)) == 1 and abs(int_det(v)) == 1
    assert mat_mul_int(v, vinv) == [[1, 0], [0, 1]]


def test_lattice_quotient_d5():
    q = lattice_quotient(root_relations(DynkinType("D", 5)))
    assert q.group.invariant_factors == (4,)
    # the class of w_5 generates
    w5 = q.project(unit(5, 4))
    assert element_order(q.group, w5) == 4


def test_lattice_quotient_e6():
    q = lattice_quotient(root_relations(DynkinType("E", 6)))
    assert q.group.invariant_factors == (3,)
    assert element_order(q.group, q.project(unit(6, 0))) == 3


def test_lattice_quotient_equal_lattices():
    q = lattice_quotient([(1, 0), (0, 1)])
    assert q.group.is_trivial
    assert q.project((3, -5)) == ()


def test_lattice_quotient_errors():
    # one relation for Z^2: the sub lattice has smaller rank
    with pytest.raises(LatticeError):
        lattice_quotient([(1, 0)])
    # sub not contained in sup: (1, 0) has coordinates (1/2, 0) in 2Z^2
    with pytest.raises(LatticeError):
        lattice_quotient([(Fraction(1, 2), 0), (0, 1)])
    # degenerate sub lattice
    with pytest.raises(LatticeError):
        lattice_quotient([(1, 0), (2, 0)])
    # a vector outside Z^r
    with pytest.raises(LatticeError):
        lattice_quotient([(2, 0), (0, 2)]).project((1, 0, 0))


def test_lattice_quotient_index_matches_determinant():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        while True:
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            d = int_det(m)
            if d != 0:
                break
        q = lattice_quotient([tuple(row) for row in m])
        assert q.group.order == abs(d)


def test_projection_is_additive_and_lifts_invert():
    q = lattice_quotient(root_relations(DynkinType("D", 6)))
    for coords in q.group.elements():
        assert q.project(q.lift(coords)) == coords
    a = unit(6, 2)
    b = unit(6, 5)
    a_plus_b = tuple(x + y for x, y in zip(a, b))
    assert q.project(a_plus_b) == q.group.add(q.project(a), q.project(b))


def test_with_basis_repins_coordinates():
    q = lattice_quotient(root_relations(DynkinType("D", 6)))
    pinned = q.with_basis([unit(6, 4), unit(6, 5)])
    assert pinned.project(unit(6, 4)) == (1, 0)
    assert pinned.project(unit(6, 5)) == (0, 1)
    eps1 = unit(6, 0)  # omega_1 = eps_1
    assert pinned.project(eps1) == (1, 1)


def test_invariant_factor_normalization():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((3, 2))


def test_group_symbols():
    assert FiniteAbelianGroup(()).symbol() == "{0}"
    assert FiniteAbelianGroup((4,)).symbol() == "Z/4Z"
    assert FiniteAbelianGroup((2, 2)).symbol() == "(Z/2Z)^2"
    assert FiniteAbelianGroup((2, 4)).symbol() == "Z/2Z x Z/4Z"


def test_enumerate_subgroups_small():
    assert len(enumerate_subgroups(FiniteAbelianGroup((4,)))) == 3
    assert len(enumerate_subgroups(FiniteAbelianGroup((2, 2)))) == 5
    assert len(enumerate_subgroups(FiniteAbelianGroup(()))) == 1


def brute_force_subgroup_count(group: FiniteAbelianGroup) -> int:
    """Close every subset of the group; count distinct closures.

    Elements are bit indices; per-generator addition maps are tabulated over
    all 2^|G| masks so each closure is a handful of table lookups.
    """
    elements = list(group.elements())
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    zero_bit = 1 << index[group.zero()]
    add_table = []
    for i, e in enumerate(elements):
        perm = [index[group.add(e, f)] for f in elements]
        row = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            row[mask] = row[mask ^ low] | (1 << perm[low.bit_length() - 1])
        add_table.append(row)
    closures = set()
    for mask in range(1 << n):
        m = mask | zero_bit
        while True:
            grown = m
            probe = m
            while probe:
                low = probe & -probe
                grown |= add_table[low.bit_length() - 1][m]
                probe ^= low
            if grown == m:
                break
            m = grown
        closures.add(m)
    return len(closures)


@pytest.mark.parametrize("factors", [
    (), (2,), (4,), (2, 2), (8,), (2, 4), (2, 2, 2), (12,), (16,), (2, 8),
    (4, 4), (2, 2, 4), (2, 2, 2, 2),
])
def test_enumerate_subgroups_matches_brute_force(factors):
    group = FiniteAbelianGroup(factors)
    assert group.order <= 16
    subs = enumerate_subgroups(group)
    assert len(subs) == brute_force_subgroup_count(group)
    # canonical order and uniqueness
    keys = [s.canonical_key() for s in subs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_subgroup_structure_and_coords():
    g = FiniteAbelianGroup((2, 4))
    sub = Subgroup(g, [(1, 2)])
    assert sub.structure.invariant_factors == (2,)
    assert sub.to_coords((1, 2)) == (1,)
    assert from_coords(sub, (1,)) == (1, 2)
    full = Subgroup(g, [(1, 0), (0, 1)])
    assert full.structure.invariant_factors == (2, 4)
    for e in full.elements:
        assert from_coords(full, full.to_coords(e)) == e


def test_subgroup_closure_matches_helper():
    g = FiniteAbelianGroup((4, 4))
    gens = [(2, 0), (0, 2)]
    assert Subgroup(g, gens).elements == closure(g, gens)
