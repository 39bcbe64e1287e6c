"""Weyl orbit counts, Coxeter elements, invariant degrees, longest elements."""

from fractions import Fraction

import oracles
import pytest
from conftest import neg

from bundleaut.finabel import LatticeQuotient
from bundleaut.groupclass import enumerate_forms
from bundleaut.moduli import hitchin_report
from bundleaut.rootdata import MAX_RANK, DynkinType, admissible_types, build_root_datum
from bundleaut.weyl import (
    _coxeter_cyclotomics,
    _root_permutations,
    invariant_degrees,
    orbit_counts,
    weyl_order,
)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def is_positive(root):
    return all(c >= 0 for c in root)


def simple_reflection(t, i):
    """s_i on simple-root coordinates: row i is e_i - A[i]."""
    cartan = build_root_datum(t).cartan
    rows = list(identity(t.rank))
    rows[i] = tuple(rows[i][j] - cartan[i][j] for j in range(t.rank))
    return tuple(rows)


def coxeter_matrix(t):
    """s_1 s_2 ... s_r on simple-root coordinates, column j the image of alpha_j."""
    w = identity(t.rank)
    for i in range(t.rank):
        w = mat_mul(w, simple_reflection(t, i))
    return w


def matrix_order(m):
    power, n = m, 1
    while power != identity(len(m)):
        power, n = mat_mul(power, m), n + 1
    return n


def faddeev_leverrier(m):
    """det(xI - M), descending coefficients; every division by k is exact
    for an integer matrix."""
    n = len(m)
    coeffs, mk, c = [1], tuple((0,) * n for _ in range(n)), 1
    for k in range(1, n + 1):
        mk = mat_mul(m, tuple(
            tuple(mk[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n)))
        trace = sum(mk[i][i] for i in range(n))
        assert trace % k == 0
        c = -trace // k
        coeffs.append(c)
    return coeffs


def orbit_partition(n_items, perms):
    """The orbits on range(n_items) of the group the perms generate."""
    seen = [False] * n_items
    orbits = []
    for start in range(n_items):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for p in perms:
                    y = p[x]
                    if not seen[y]:
                        seen[y] = True
                        nxt.append(y)
            orbit.extend(nxt)
            frontier = nxt
        orbits.append(sorted(orbit))
    return orbits


def root_orbits(t):
    rd = build_root_datum(t)
    return [[rd.roots[k] for k in orbit]
            for orbit in orbit_partition(len(rd.roots), _root_permutations(t))]


def hyperplane_pair_orbits_oracle(t):
    """W-orbits on unordered pairs of distinct root hyperplanes {a, -a},
    each pair a frozenset of two frozensets, by permuting all the pairs."""
    rd = build_root_datum(t)
    planes = sorted({frozenset((a, neg(a))) for a in rd.roots}, key=max)
    plane_of = {root: k for k, plane in enumerate(planes) for root in plane}
    index = {root: k for k, root in enumerate(rd.roots)}
    reps = [index[max(plane)] for plane in planes]
    # s_i sends the hyperplane {a, -a} to the hyperplane of s_i(a)
    perms = [tuple(plane_of[rd.roots[perm[r]]] for r in reps) for perm in _root_permutations(t)]
    pairs = [(i, j) for i in range(len(planes)) for j in range(i + 1, len(planes))]
    pair_index = {p: k for k, p in enumerate(pairs)}
    pair_perms = [
        tuple(pair_index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs)
        for perm in perms
    ]
    items = [frozenset((planes[i], planes[j])) for i, j in pairs]
    return [[items[k] for k in orbit] for orbit in orbit_partition(len(pairs), pair_perms)]


def longest_element(t):
    """w_0 and its length by greedy descent: while some w(alpha_i), column i
    of w, is a positive root, replace w by w s_i, one step longer."""
    w, length = identity(t.rank), 0
    while True:
        i = next((i for i in range(t.rank) if all(row[i] >= 0 for row in w)), None)
        if i is None:
            return w, length
        w, length = mat_mul(w, simple_reflection(t, i)), length + 1


@pytest.mark.parametrize("name,orbits", [
    ("A2", 1),
    ("B2", 2),   # short and long
    ("E6", 1),   # simply laced: one orbit
])
def test_orbits_on_roots(name, orbits):
    t = DynkinType.parse(name)
    rd = build_root_datum(t)
    assert orbit_counts(t)[0] == orbits
    assert len(root_orbits(t)) == orbits
    assert sorted(x for orbit in root_orbits(t) for x in orbit) == sorted(rd.roots)


@pytest.mark.parametrize("t", admissible_types(8))
def test_orbit_count_by_laced_type(t):
    m = orbit_counts(t)[0]
    assert m == (1 if t.family in "ADE" else 2)


def test_pair_orbits_a2():
    assert orbit_counts(DynkinType.parse("A2"))[1] == 1


def test_pair_orbits_a1_empty():
    # one root orbit, and a single hyperplane leaves no pair
    assert orbit_counts(DynkinType.parse("A1"))[:2] == (1, 0)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
def test_pair_orbits_against_full_group(name):
    # the oracle's Burnside count averages over every element of W, whose
    # order it checks against its closed form
    t = DynkinType.parse(name)
    expected = oracles.burnside_counts(t.family, t.rank).hyperplane_pairs
    assert weyl_order(t) == oracles.weyl_order(t.family, t.rank)
    assert orbit_counts(t)[1] == expected
    assert len(hyperplane_pair_orbits_oracle(t)) == expected


@pytest.mark.parametrize("t", admissible_types(12))
def test_pair_orbits_against_oracle(t):
    orbits = hyperplane_pair_orbits_oracle(t)
    half = len(build_root_datum(t).roots) // 2
    assert sum(len(orbit) for orbit in orbits) == half * (half - 1) // 2
    assert orbit_counts(t)[1] == len(orbits)


def family_counts(t):
    """(m, n, ordered) of the classical families, derived by hand.

    Take the roots in the usual coordinates: e_i - e_j for A_r, and
    +-e_i +- e_j (long in B, short in C) with +-e_i (B) or +-2e_i (C) for
    B_r and C_r, with +-e_i +- e_j alone for D_r.  A hyperplane of a root
    +-e_i +- e_j has the index set {i, j}, one of +-e_i the set {i}.  W
    permutes the indices, and in B_r, C_r and D_r also changes their signs
    (evenly many in D_r), so a pair of distinct hyperplanes is classified
    by the root lengths and by how the two index sets meet:
    - A_r, r >= 3: the sets share an index or are disjoint: 2 orbits;
    - D_r, r >= 5: the same set (e_i - e_j against e_i + e_j), one shared
      index, or disjoint: 3 orbits;
    - B_r and C_r, r >= 4: those 3 for two long (B) or short (C) roots of
      the form +-e_i +- e_j, 1 for two of the form +-e_i, and for one of
      each, the single index inside the set or outside it: 6 orbits, with
      m = 2 root lengths.
    The lower bounds on r make every class nonempty.  In D_r they also
    leave an index outside two disjoint sets, whose sign change evens out
    the parity; D_4 has none, and its disjoint class splits in two.

    An ordered pair of roots (a, b) is classified the same way, by the
    lengths, by which indices the supports share, and by the signs of b at
    the shared ones, since the stabilizer of a moves the rest freely:
    - A_r, r >= 3, a = e_1 - e_2: b = a, b = -a; b shares one index of a,
      which is its first or its second index in a and its first or its
      second in b: 4; or b is disjoint from a.  7 orbits.
    - D_r, r >= 5, a = e_1 - e_2, whose stabilizer holds the swap
      e_1 -> -e_2, e_2 -> -e_1: b = a, b = -a, b = +-(e_1 + e_2) (1 orbit, by
      that swap), b shares one index with <a, b^vee> = 1 or -1 (1 orbit
      each), or b is disjoint from a (1 orbit, as a sign change at a fifth
      index evens out the parity).  6 orbits.
    - B_r, r >= 4, summed over the two dominant roots: a = e_1 + e_2 has
      b = a, -a, +-(e_1 - e_2) (1 orbit, by the swap of e_1 and e_2), a
      long b sharing one index with the sign of a or against it, or disjoint
      (needing a fourth index), and b = e_1 or e_2, -e_1 or -e_2, or
      +-e_k, k >= 3: 9 orbits.  a = e_1 has b = e_1, -e_1, +-e_k, and the
      long b = e_1 +- e_k, -e_1 +- e_k or +-e_k +- e_l, k, l >= 2: 6 orbits.
      15 in all.  C_r has the same W and the same supports and signs, its
      long and short roots swapped: 15.
    """
    return {"A": (1, 2, 7), "B": (2, 6, 15), "C": (2, 6, 15), "D": (1, 3, 6)}[t.family]


@pytest.mark.parametrize("t", [DynkinType(family, rank)
                               for rank in (*range(5, 13), 16, 20, 30, 50, MAX_RANK)
                               for family in "ABCD"])
def test_classical_family_counts(t):
    # the oracles above reach ranks 5-12 (5-11 for A); 16 to MAX_RANK are past them
    assert orbit_counts(t) == family_counts(t)


@pytest.mark.parametrize("t", [DynkinType(family, rank) for rank in (16, 20, 30)
                               for family in "ABCD"])
def test_classical_family_degrees(t):
    # past the rank-12 oracles: both degree routes and the |W| chain
    assert invariant_degrees(t) == oracles.degrees(t.family, t.rank)
    assert weyl_order(t) == oracles.weyl_order(t.family, t.rank)


@pytest.mark.parametrize("t", [DynkinType(family, rank) for rank in (16, 20, 30)
                               for family in "ABCD"])
def test_classical_family_report_numerology(t):
    # the Hitchin numerology of report past the rank-8 golden table, against
    # the oracle's dim G = r + |Phi| and h, the largest degree; the base has
    # dimension dim G (g-1)
    genus = 3
    dim_group = t.rank + oracles.num_roots(t.family, t.rank)
    degrees = oracles.degrees(t.family, t.rank)
    report = hitchin_report(enumerate_forms(t)[0], genus)
    assert report["dim_group"] == dim_group
    assert report["weights"] == list(degrees)
    assert report["coxeter_number"] == degrees[-1]
    assert report["dim_basis"] == dim_group * (genus - 1)


def test_pair_orbit_golden_values():
    # golden-by-oracle: frozen from the oracle's Burnside counts
    golden = {"B2": 3, "G2": 4, "A3": 2}
    for name, n in golden.items():
        assert orbit_counts(DynkinType.parse(name))[1] == n


def test_ordered_pair_count_differs_from_hyperplane_pairs():
    t = DynkinType.parse("A2")
    # 1 orbit of distinct-hyperplane pairs, but 6 orbits on Phi x Phi
    assert orbit_counts(t)[1] == 1
    assert orbit_counts(t)[2] == 6


def ordered_pair_orbits_oracle(t):
    """W-orbits on Phi x Phi from the simple reflections permuting all
    |Phi|^2 pairs, the pair (j, k) encoded as j * |Phi| + k."""
    perms = _root_permutations(t)
    n = len(build_root_datum(t).roots)
    pair_perms = [
        tuple(p[k // n] * n + p[k % n] for k in range(n * n)) for p in perms
    ]
    return len(orbit_partition(n * n, pair_perms))


@pytest.mark.parametrize("t", admissible_types(12))
def test_ordered_pair_count_against_all_pairs(t):
    assert orbit_counts(t)[2] == ordered_pair_orbits_oracle(t)


@pytest.mark.parametrize("t", admissible_types(12))
def test_one_dominant_root_per_root_orbit(t):
    # the fact the ordered count rests on: each W-orbit of roots meets the
    # closed dominant chamber, <theta, alpha_i^vee> >= 0 for all i, once
    rd = build_root_datum(t)
    dominant = [theta for theta in rd.roots
                if all(c >= 0 for c in mat_vec(rd.cartan, theta))]
    assert len(dominant) == len(root_orbits(t)) == orbit_counts(t)[0]
    for orbit in root_orbits(t):
        assert len(set(orbit) & set(dominant)) == 1


@pytest.mark.parametrize("name,order", [
    ("A1", 2),
    ("G2", 6),   # h = |Phi|/r = 12/2
    ("E6", 12),  # h = 72/6
])
def test_coxeter_element_order(name, order):
    t = DynkinType.parse(name)
    rd = build_root_datum(t)
    assert _coxeter_cyclotomics(t)[0] == order
    assert matrix_order(coxeter_matrix(t)) == order
    assert order == len(rd.roots) // rd.rank


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cyclotomic(d):
    """Phi_d, descending coefficients: x^d - 1 divided by each Phi_e, e | d,
    e < d, the long division by a monic divisor asserted exact."""
    poly = [1] + [0] * (d - 1) + [-1]
    for e in range(1, d):
        if d % e == 0:
            divisor, quotient = cyclotomic(e), []
            for i in range(len(poly) - len(divisor) + 1):
                quotient.append(poly[i])
                for j, y in enumerate(divisor):
                    poly[i + j] -= quotient[-1] * y
            assert not any(poly)
            poly = quotient
    return poly


@pytest.mark.parametrize("t", admissible_types(12))
def test_coxeter_charpoly_against_matrix_oracle(t):
    # the cyclotomic multiplicities from the traces of the permutation against
    # Faddeev-LeVerrier on the matrix
    product = [1]
    for d, a in _coxeter_cyclotomics(t)[1].items():
        for _ in range(a):
            product = poly_mul(product, cyclotomic(d))
    assert product == faddeev_leverrier(coxeter_matrix(t))


@pytest.mark.parametrize("name,degrees", [
    ("A1", (2,)),
    ("G2", (2, 6)),
    ("E6", (2, 5, 6, 8, 9, 12)),
    ("E7", (2, 6, 8, 10, 12, 14, 18)),
    ("E8", (2, 8, 12, 14, 18, 20, 24, 30)),
    ("F4", (2, 6, 8, 12)),
    ("D4", (2, 4, 4, 6)),
])
def test_invariant_degrees_known(name, degrees):
    assert invariant_degrees(DynkinType.parse(name)) == degrees


@pytest.mark.parametrize("t", admissible_types(8))
def test_invariant_degrees_against_height_oracle(t):
    # invariant_degrees checks its Coxeter traces against the dual partition
    # of the root heights on every call, so a test copy of that route would
    # compare the package with itself; the oracle's Humphreys closed forms
    # are independent of both routes
    assert invariant_degrees(t) == oracles.degrees(t.family, t.rank)


@pytest.mark.parametrize("t", admissible_types(8))
def test_degree_identities(t):
    rd = build_root_datum(t)
    degrees = invariant_degrees(t)
    assert sum(d - 1 for d in degrees) == len(rd.roots) // 2
    assert degrees[-1] == len(rd.roots) // rd.rank


@pytest.mark.parametrize("t", admissible_types(16))
def test_weyl_order_matches_degree_product(t):
    product = 1
    for d in invariant_degrees(t):
        product *= d
    assert weyl_order(t) == product


def weyl_order_oracle(t):
    """|W| by an orbit-stabilizer chain on fundamental weights, independent
    of the highest root and of the connection index.

    Stab_W(omega_i) is the parabolic generated by the other simple
    reflections, so |W| = |orbit(omega_i)| |W_{S - i}| recursively.  In
    fundamental-weight coordinates omega_i is the unit vector e_i and
    s_j(v) = v - v_j (column j of A)."""
    columns = list(zip(*build_root_datum(t).cartan))

    def order(active):
        if not active:
            return 1
        i = min(active)
        start = tuple(1 if j == i else 0 for j in range(t.rank))
        orbit, frontier = {start}, [start]
        while frontier:
            nxt = []
            for v in frontier:
                for j in active:
                    if v[j]:
                        image = tuple(x - v[j] * a for x, a in zip(v, columns[j]))
                        if image not in orbit:
                            orbit.add(image)
                            nxt.append(image)
            frontier = nxt
        return len(orbit) * order(active - {i})

    return order(frozenset(range(t.rank)))


@pytest.mark.parametrize("t", admissible_types(12))
def test_weyl_order_against_orbit_stabilizer_oracle(t):
    assert weyl_order(t) == weyl_order_oracle(t)


@pytest.mark.parametrize("t", admissible_types(16))
def test_connection_index_counts_the_highest_root_ones(t):
    # weyl_order takes |P/Q| = 1 + #{i : n_i = 1}; here |P/Q| is read off a
    # Smith form of the Cartan matrix instead
    theta = build_root_datum(t).roots[-1]
    assert 1 + theta.count(1) == LatticeQuotient(build_root_datum(t).cartan).group.order


def test_weyl_order_classical_values():
    for name in ("A3", "B4", "C4", "D4", "F4", "E6", "E7", "E8"):
        t = DynkinType.parse(name)
        assert weyl_order(t) == oracles.weyl_order(t.family, t.rank)


def test_longest_element_a1():
    t = DynkinType.parse("A1")
    assert longest_element(t) == (simple_reflection(t, 0), 1)


def test_longest_element_a2_flips_weights():
    t = DynkinType.parse("A2")
    rd = build_root_datum(t)
    w0, _ = longest_element(t)
    assert mat_mul(w0, w0) == identity(2)
    # w1 = (2a1 + a2)/3 and w2 = (a1 + 2a2)/3 (Bourbaki, plate I)
    w1 = (Fraction(2, 3), Fraction(1, 3))
    w2 = (Fraction(1, 3), Fraction(2, 3))
    for i, w in enumerate((w1, w2)):
        assert [sum(a * x for a, x in zip(row, w)) for row in rd.cartan] == \
            [1 if j == i else 0 for j in range(2)]
    assert mat_vec(w0, w1) == neg(w2)
    assert mat_vec(w0, w2) == neg(w1)


def test_longest_element_d4_is_minus_one():
    w0, _ = longest_element(DynkinType.parse("D4"))
    assert w0 == tuple(tuple(-x for x in row) for row in identity(4))


@pytest.mark.parametrize("t", admissible_types(8))
def test_longest_element_properties(t):
    rd = build_root_datum(t)
    w0, length = longest_element(t)
    assert mat_mul(w0, w0) == identity(rd.rank)
    simples = identity(rd.rank)
    assert {mat_vec(w0, a) for a in simples} == {neg(a) for a in simples}
    for a in rd.roots:
        if is_positive(a):
            assert not is_positive(mat_vec(w0, a))
    assert length == len(rd.roots) // 2
