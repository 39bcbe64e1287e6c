"""Weyl orbit counts, Coxeter elements, invariant degrees, longest elements."""

from fractions import Fraction

import pytest

from bundleaut.rootdata import DynkinType, admissible_types, build_root_datum
from bundleaut.weyl import (
    _order,
    _root_permutations,
    coxeter_element,
    discriminant_orbit_counts,
    invariant_degrees,
    ordered_root_pair_orbit_count,
    weyl_order,
)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def neg(v):
    return tuple(-x for x in v)


def is_positive(root):
    return all(c >= 0 for c in root)


def simple_reflection(t, i):
    """s_i on simple-root coordinates: row i is e_i - A[i]."""
    cartan = build_root_datum(t).cartan
    rows = list(identity(t.rank))
    rows[i] = tuple(rows[i][j] - cartan[i][j] for j in range(t.rank))
    return tuple(rows)


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


def degrees_oracle(t):
    """Exponents via the conjugate partition of positive-root heights.

    Independent of the Coxeter-element route: the number of positive roots
    of height k, read as a partition, has the exponents as its conjugate.
    The height of a root is the sum of its simple-root coordinates.
    """
    heights = [sum(a) for a in build_root_datum(t).roots if is_positive(a)]
    counts = []
    k = 1
    while True:
        n_k = sum(1 for h in heights if h == k)
        if n_k == 0:
            break
        counts.append(n_k)
        k += 1
    assert sum(counts) == len(heights)
    exponents = [sum(1 for c in counts if c >= j) for j in range(1, max(counts) + 1)]
    return tuple(sorted(e + 1 for e in exponents))


@pytest.mark.parametrize("name,orbits", [
    ("A2", 1),
    ("B2", 2),   # short and long
    ("E6", 1),   # simply laced: one orbit
])
def test_orbits_on_roots(name, orbits):
    t = DynkinType.parse(name)
    rd = build_root_datum(t)
    assert discriminant_orbit_counts(t)[0] == orbits
    assert len(root_orbits(t)) == orbits
    assert sorted(x for orbit in root_orbits(t) for x in orbit) == sorted(rd.roots)


@pytest.mark.parametrize("t", admissible_types(8))
def test_orbit_count_by_laced_type(t):
    m = discriminant_orbit_counts(t)[0]
    assert m == (1 if t.family in "ADE" else 2)


def test_pair_orbits_a2():
    assert discriminant_orbit_counts(DynkinType.parse("A2"))[1] == 1


def test_pair_orbits_a1_empty():
    # one root orbit, and a single hyperplane leaves no pair
    assert discriminant_orbit_counts(DynkinType.parse("A1")) == (1, 0)


def brute_force_pair_orbits(t):
    """Enumerate the full Weyl group (small ranks only!) and its orbits on
    unordered pairs of distinct hyperplanes."""
    rd = build_root_datum(t)
    gens = [simple_reflection(t, i) for i in range(rd.rank)]
    group = {identity(rd.rank)}
    frontier = list(group)
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(g, m)
                if prod not in group:
                    group.add(prod)
                    new.append(prod)
        frontier = new
    planes = list({frozenset((a, neg(a))) for a in rd.roots})
    pairs = {frozenset((a, b)) for i, a in enumerate(planes) for b in planes[i + 1:]}

    def act(m, pair):
        return frozenset(
            frozenset(mat_vec(m, root) for root in plane) for plane in pair)

    orbits = set()
    for pair in pairs:
        orbits.add(frozenset(act(m, pair) for m in group))
    return len(orbits), len(group)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
def test_pair_orbits_against_full_group(name):
    t = DynkinType.parse(name)
    expected, group_order = brute_force_pair_orbits(t)
    assert weyl_order(t) == group_order
    assert discriminant_orbit_counts(t)[1] == expected
    assert len(hyperplane_pair_orbits_oracle(t)) == expected


@pytest.mark.parametrize("t", admissible_types(12))
def test_pair_orbits_against_oracle(t):
    orbits = hyperplane_pair_orbits_oracle(t)
    half = len(build_root_datum(t).roots) // 2
    assert sum(len(orbit) for orbit in orbits) == half * (half - 1) // 2
    assert discriminant_orbit_counts(t)[1] == len(orbits)


def family_counts(t):
    """(m, n) of the classical families, derived by hand.

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
    """
    return {"A": (1, 2), "B": (2, 6), "C": (2, 6), "D": (1, 3)}[t.family]


@pytest.mark.parametrize("t", [DynkinType(family, rank) for rank in (*range(5, 13), 16, 20)
                               for family in "ABCD"])
def test_classical_family_counts(t):
    # the oracle above reaches ranks 5-12 (5-11 for A); 16 and 20 are past it
    assert discriminant_orbit_counts(t) == family_counts(t)


def test_pair_orbit_golden_values():
    # golden-by-oracle: frozen from the brute force above
    golden = {"B2": 3, "G2": 4, "A3": 2}
    for name, n in golden.items():
        assert discriminant_orbit_counts(DynkinType.parse(name))[1] == n


def test_ordered_pair_count_differs_from_hyperplane_pairs():
    t = DynkinType.parse("A2")
    # 1 orbit of distinct-hyperplane pairs, but 6 orbits on Phi x Phi
    assert discriminant_orbit_counts(t)[1] == 1
    assert ordered_root_pair_orbit_count(t) == 6


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
    assert ordered_root_pair_orbit_count(t) == ordered_pair_orbits_oracle(t)


@pytest.mark.parametrize("t", admissible_types(12))
def test_one_dominant_root_per_root_orbit(t):
    # the fact the ordered count rests on: each W-orbit of roots meets the
    # closed dominant chamber, <theta, alpha_i^vee> >= 0 for all i, once
    rd = build_root_datum(t)
    dominant = [theta for theta in rd.roots
                if all(c >= 0 for c in mat_vec(rd.cartan, theta))]
    assert len(dominant) == len(root_orbits(t)) == discriminant_orbit_counts(t)[0]
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
    assert _order(coxeter_element(t), len(rd.roots)) == order
    assert order == len(rd.roots) // rd.rank


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
    assert invariant_degrees(t) == degrees_oracle(t)


@pytest.mark.parametrize("t", admissible_types(8))
def test_degree_identities(t):
    rd = build_root_datum(t)
    degrees = invariant_degrees(t)
    assert sum(d - 1 for d in degrees) == len(rd.roots) // 2
    assert degrees[-1] == len(rd.roots) // rd.rank


@pytest.mark.parametrize("t", admissible_types(8))
def test_weyl_order_matches_degree_product(t):
    product = 1
    for d in invariant_degrees(t):
        product *= d
    assert weyl_order(t) == product


def test_weyl_order_classical_values():
    values = {"A3": 24, "B4": 384, "C4": 384, "D4": 192, "F4": 1152,
              "E6": 51840, "E7": 2903040, "E8": 696729600}
    for name, order in values.items():
        assert weyl_order(DynkinType.parse(name)) == order


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
