"""Smith normal form, lattice quotients, finite abelian groups, subgroups."""

import random
from fractions import Fraction

import oracles
import pytest
from conftest import lift, unit

from bundleaut.finabel import (
    FiniteAbelianGroup,
    LatticeQuotient,
    Subgroup,
    closure,
    enumerate_subgroups,
    smith_normal_form,
    sublattice_quotient,
)
from bundleaut.rootdata import (
    ConsistencyError,
    DynkinType,
    admissible_types,
    build_root_datum,
    cartan_matrix,
)


def mat_mul_int(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


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
    s, u, v = smith_normal_form(m)
    assert mat_mul_int(mat_mul_int(u, m), v) == s
    assert abs(oracles.det(u)) == 1
    assert abs(oracles.det(v)) == 1
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
    s, u, v = smith_normal_form([[0, 0], [0, 0]])
    assert s == [[0, 0], [0, 0]]
    assert abs(oracles.det(u)) == 1 and abs(oracles.det(v)) == 1


def full_scan_smith_normal_form(m):
    """The Smith form as the package computed it before unit pivots ended
    the pivot search: every pivot search scans the whole remaining block,
    and every pivot runs the divisibility scan."""
    s = [list(row) for row in m]
    nrows = len(s)
    ncols = len(s[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_op(i, j, q):
        s[i] = [a - q * b for a, b in zip(s[i], s[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, q):
        for row in s:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    for t in range(min(nrows, ncols)):
        while True:
            pivot = None
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    val = abs(s[i][j])
                    if val and (best is None or val < best):
                        best, pivot = val, (i, j)
            if pivot is None:
                break
            if pivot[0] != t:
                s[t], s[pivot[0]] = s[pivot[0]], s[t]
                u[t], u[pivot[0]] = u[pivot[0]], u[t]
            if pivot[1] != t:
                j = pivot[1]
                for row in s + v:
                    row[t], row[j] = row[j], row[t]
            dirty = False
            for i in range(t + 1, nrows):
                if s[i][t]:
                    row_op(i, t, s[i][t] // s[t][t])
                    dirty = dirty or s[i][t] != 0
            for j in range(t + 1, ncols):
                if s[t][j]:
                    col_op(j, t, s[t][j] // s[t][t])
                    dirty = dirty or s[t][j] != 0
            if dirty:
                continue
            culprit = next((i for i in range(t + 1, nrows)
                            for j in range(t + 1, ncols) if s[i][j] % s[t][t]), None)
            if culprit is None:
                break
            s[t] = [a + b for a, b in zip(s[t], s[culprit])]
            u[t] = [a + b for a, b in zip(u[t], u[culprit])]
        if s[t][t] < 0:
            s[t] = [-a for a in s[t]]
            u[t] = [-a for a in u[t]]
    return s, u, v


@pytest.mark.parametrize("t", admissible_types(12), ids=lambda t: t.label)
def test_unit_pivots_keep_the_smith_form_of_cartan_matrices(t):
    cartan = cartan_matrix(t)
    assert smith_normal_form(cartan) == full_scan_smith_normal_form(cartan)


def test_unit_pivots_keep_the_smith_form_of_random_matrices():
    rng = random.Random(1509)
    no_units = [x for x in range(-9, 10) if abs(x) != 1]
    for k in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        # every third matrix has no entry of absolute value 1
        entries = no_units if k % 3 == 0 else range(-9, 10)
        m = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(m) == full_scan_smith_normal_form(m), m


def fraction_inverse(m):
    """The inverse of an invertible square matrix, by Gauss-Jordan
    elimination over the rationals."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and (f := a[i][c]):
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def test_column_quotient_reads_the_row_smith_form():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if oracles.det(m) == 0:
            continue
        smith = smith_normal_form(m)
        rows = LatticeQuotient(m, smith)
        # the row lifts are the rows of V^-1 at each d_k > 1
        s, _, v = smith
        vinv = fraction_inverse(v)
        assert rows.generator_lifts == tuple(tuple(vinv[k]) for k in range(n) if s[k][k] > 1)
        q = LatticeQuotient(m, smith, columns=True)
        transposed = LatticeQuotient(list(zip(*m)))
        assert q.group == transposed.group == rows.group
        # the rows, or the columns, of m are the relations, and the lifts hit
        # the unit classes
        for quotient, relations in ((rows, m), (q, list(zip(*m)))):
            for rel in relations:
                assert quotient.project(rel) == quotient.group.zero()
            k = len(quotient.group.invariant_factors)
            for i, gen in enumerate(quotient.generator_lifts):
                assert quotient.project(gen) == tuple(int(j == i) for j in range(k))
            for coords in quotient.group.elements():
                assert quotient.project(lift(quotient, coords)) == coords


def coset_order(group, sub, x):
    n, y = 1, group.reduce(x)
    while y not in sub.elements:
        y, n = group.add(y, x), n + 1
    return n


def test_subgroup_quotient_has_the_coset_structure():
    # a group of at most two invariant factors is fixed by its order and exponent
    for fs in [(12,), (2, 2), (2, 4), (3, 9), (6, 6)]:
        g = FiniteAbelianGroup(fs)
        for elements in enumerate_subgroups(g):
            sub = Subgroup.from_elements(g, elements)
            order = g.order // len(sub.elements)
            exponent = max(coset_order(g, sub, x) for x in g.elements())
            expected = tuple(f for f in (order // exponent, exponent) if f > 1)
            assert sub.quotient == FiniteAbelianGroup(expected), sub


def test_lattice_quotient_d5():
    q = LatticeQuotient(root_relations(DynkinType("D", 5)))
    assert q.group.invariant_factors == (4,)
    # the class of w_5 generates
    w5 = q.project(unit(5, 4))
    assert element_order(q.group, w5) == 4


def test_lattice_quotient_e6():
    q = LatticeQuotient(root_relations(DynkinType("E", 6)))
    assert q.group.invariant_factors == (3,)
    assert element_order(q.group, q.project(unit(6, 0))) == 3


def test_lattice_quotient_equal_lattices():
    q = LatticeQuotient([(1, 0), (0, 1)])
    assert q.group.is_trivial
    assert q.project((3, -5)) == ()


def test_lattice_quotient_errors():
    # one relation row of length 2 for Z^1
    with pytest.raises(ConsistencyError, match="one relation row of length r"):
        LatticeQuotient([(1, 0)])
    # a relation that is not an integer vector
    with pytest.raises(ConsistencyError, match="relations must be integer vectors"):
        LatticeQuotient([(Fraction(1, 2), 0), (0, 1)])
    # degenerate sub lattice
    with pytest.raises(ConsistencyError, match="do not span a full-rank lattice"):
        LatticeQuotient([(1, 0), (2, 0)])
    # a vector outside Z^r
    with pytest.raises(ConsistencyError, match=r"expected a vector of Z\^2"):
        LatticeQuotient([(2, 0), (0, 2)]).project((1, 0, 0))
    # two lifts for Z/4Z, and a lift for a quotient past the size limit
    with pytest.raises(ConsistencyError, match="one lift per invariant factor"):
        LatticeQuotient([(4,)]).with_basis([(1,), (1,)])
    with pytest.raises(ConsistencyError, match="too large to re-coordinatize"):
        LatticeQuotient([(4097,)]).with_basis([(1,)])
    # L/M with L of lower rank, and with a vector of M outside L
    with pytest.raises(ConsistencyError, match="row lattice does not have full rank"):
        sublattice_quotient([(1, 0), (2, 0)], [(2, 0)])
    with pytest.raises(ConsistencyError, match="vector lies outside the lattice"):
        sublattice_quotient([(2, 0), (0, 2)], [(1, 0), (0, 2)])


def test_lattice_quotient_index_matches_determinant():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        while True:
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            d = oracles.det(m)
            if d != 0:
                break
        q = LatticeQuotient([tuple(row) for row in m])
        assert q.group.order == abs(d)


def test_projection_is_additive_and_lifts_invert():
    q = LatticeQuotient(root_relations(DynkinType("D", 6)))
    for coords in q.group.elements():
        assert q.project(lift(q, coords)) == coords
    a = unit(6, 2)
    b = unit(6, 5)
    a_plus_b = tuple(x + y for x, y in zip(a, b))
    assert q.project(a_plus_b) == q.group.add(q.project(a), q.project(b))


def test_with_basis_repins_coordinates():
    q = LatticeQuotient(root_relations(DynkinType("D", 6)))
    pinned = q.with_basis([unit(6, 4), unit(6, 5)])
    assert pinned.project(unit(6, 4)) == (1, 0)
    assert pinned.project(unit(6, 5)) == (0, 1)
    eps1 = unit(6, 0)  # omega_1 = eps_1
    assert pinned.project(eps1) == (1, 1)


def test_invariant_factor_normalization():
    with pytest.raises(ConsistencyError, match="divisibility chain"):
        FiniteAbelianGroup((3, 2))
    with pytest.raises(ConsistencyError, match="invariant factors must be >= 2"):
        FiniteAbelianGroup((1, 2))


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
    keys = [(len(e), tuple(sorted(e))) for e in subs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_subgroup_structure_and_coords():
    g = FiniteAbelianGroup((2, 4))
    sub = Subgroup(g, closure(g, [(1, 2)]))
    assert sub.structure.invariant_factors == (2,)
    assert sub.to_coords((1, 2)) == (1,)
    assert from_coords(sub, (1,)) == (1, 2)
    full = Subgroup(g, closure(g, [(1, 0), (0, 1)]))
    assert full.structure.invariant_factors == (2, 4)
    for e in full.elements:
        assert from_coords(full, full.to_coords(e)) == e


@pytest.mark.parametrize("factors", [
    (2,), (4,), (2, 2), (8,), (2, 4), (2, 2, 2), (12,), (16,), (2, 8),
    (4, 4), (2, 2, 4), (2, 2, 2, 2), (3, 9),
])
def test_whole_group_has_unit_basis(factors):
    # the whole group's coordinates are the ambient ones; a subgroup is built
    # from its element set, so every generating set below builds the same one
    g = FiniteAbelianGroup(factors)
    units = tuple(unit(len(factors), i) for i in range(len(factors)))
    elements = list(g.elements())
    rng = random.Random(sum(factors))
    for _ in range(30):
        gens = rng.choices(elements, k=rng.randint(len(factors), len(factors) + 2))
        if len(closure(g, gens)) < g.order:
            continue
        sub = Subgroup(g, closure(g, gens))
        assert sub.structure == g
        assert sub.basis == units
        assert all(sub.to_coords(e) == e for e in elements)


def test_subgroup_closure_matches_helper():
    # the generators a subgroup picks from its elements span them again
    g = FiniteAbelianGroup((4, 4))
    gens = [(2, 0), (0, 2)]
    sub = Subgroup(g, closure(g, gens))
    assert sub.elements == closure(g, gens) == closure(g, sub.generators)


def test_subgroup_of_a_set_that_is_no_subgroup_fails_its_check():
    # {0, 2, 3} in Z/4Z: its greedy generators 2 and 3 span all of Z/4Z
    with pytest.raises(ConsistencyError, match="generators do not span the given elements"):
        Subgroup(FiniteAbelianGroup((4,)), {(0,), (2,), (3,)})
