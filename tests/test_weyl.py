"""Weyl orbits, Coxeter elements, invariant degrees, longest elements."""

from fractions import Fraction

import pytest

from bundleaut.rootdata import (
    DynkinType,
    admissible_types,
    build_root_datum,
    is_positive_root,
    root_hyperplanes,
)
from bundleaut.weyl import (
    EmptyPairSet,
    _orbit_partition,
    _root_permutations,
    coxeter_element,
    coxeter_number,
    invariant_degrees,
    longest_element,
    orbits_on_hyperplane_pairs,
    orbits_on_roots,
    ordered_root_pair_orbit_count,
    simple_reflection_element,
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


def degrees_oracle(t):
    """Exponents via the conjugate partition of positive-root heights.

    Independent of the Coxeter-element route: the number of positive roots
    of height k, read as a partition, has the exponents as its conjugate.
    The height of a root is the sum of its simple-root coordinates.
    """
    heights = [sum(a) for a in build_root_datum(t).roots if is_positive_root(a)]
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
    od = orbits_on_roots(t)
    assert od.num_orbits == orbits
    assert sorted(x for orbit in od.orbits for x in orbit) == sorted(rd.roots)


@pytest.mark.parametrize("t", admissible_types(8))
def test_orbit_count_by_laced_type(t):
    m = orbits_on_roots(t).num_orbits
    assert m == (1 if t.family in "ADE" else 2)


def test_pair_orbits_a2():
    assert orbits_on_hyperplane_pairs(DynkinType.parse("A2")).num_orbits == 1


def test_pair_orbits_a1_empty():
    with pytest.raises(EmptyPairSet):
        orbits_on_hyperplane_pairs(DynkinType.parse("A1"))


def brute_force_pair_orbits(t):
    """Enumerate the full Weyl group (small ranks only!) and its orbits on
    unordered pairs of distinct hyperplanes."""
    rd = build_root_datum(t)
    gens = [simple_reflection_element(t, i).matrix for i in range(rd.rank)]
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
    planes = [frozenset(p) for p in root_hyperplanes(rd)]
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
    assert orbits_on_hyperplane_pairs(t).num_orbits == expected


def test_pair_orbit_golden_values():
    # golden-by-oracle: frozen from the brute force above
    golden = {"B2": 3, "G2": 4, "A3": 2}
    for name, n in golden.items():
        assert orbits_on_hyperplane_pairs(DynkinType.parse(name)).num_orbits == n


def test_ordered_pair_count_differs_from_hyperplane_pairs():
    t = DynkinType.parse("A2")
    # 1 orbit of distinct-hyperplane pairs, but 6 orbits on Phi x Phi
    assert orbits_on_hyperplane_pairs(t).num_orbits == 1
    assert ordered_root_pair_orbit_count(t) == 6


def ordered_pair_orbits_oracle(t):
    """W-orbits on Phi x Phi from the simple reflections permuting all
    |Phi|^2 pairs, the pair (j, k) encoded as j * |Phi| + k."""
    perms = _root_permutations(t)
    n = len(build_root_datum(t).roots)
    pair_perms = [
        tuple(p[k // n] * n + p[k % n] for k in range(n * n)) for p in perms
    ]
    return len(_orbit_partition(n * n, pair_perms))


@pytest.mark.parametrize("t", admissible_types(8))
def test_ordered_pair_count_against_all_pairs(t):
    assert ordered_root_pair_orbit_count(t) == ordered_pair_orbits_oracle(t)


@pytest.mark.parametrize("t", admissible_types(8))
def test_one_dominant_root_per_root_orbit(t):
    # the fact the ordered count rests on: each W-orbit of roots meets the
    # closed dominant chamber, <theta, alpha_i^vee> >= 0 for all i, once
    rd = build_root_datum(t)
    dominant = [theta for theta in rd.roots
                if all(c >= 0 for c in mat_vec(rd.cartan, theta))]
    assert len(dominant) == orbits_on_roots(t).num_orbits
    for orbit in orbits_on_roots(t).orbits:
        assert len(set(orbit) & set(dominant)) == 1


@pytest.mark.parametrize("name,order", [
    ("A1", 2),
    ("G2", 6),   # h = |Phi|/r = 12/2
    ("E6", 12),  # h = 72/6
])
def test_coxeter_element_order(name, order):
    t = DynkinType.parse(name)
    rd = build_root_datum(t)
    assert coxeter_element(t).order() == order
    assert coxeter_number(t) == len(rd.roots) // rd.rank


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
    assert longest_element(t).matrix == simple_reflection_element(t, 0).matrix


def test_longest_element_a2_flips_weights():
    t = DynkinType.parse("A2")
    rd = build_root_datum(t)
    w0 = longest_element(t)
    assert (w0 * w0).is_identity
    # w1 = (2a1 + a2)/3 and w2 = (a1 + 2a2)/3 (Bourbaki, plate I)
    w1 = (Fraction(2, 3), Fraction(1, 3))
    w2 = (Fraction(1, 3), Fraction(2, 3))
    for i, w in enumerate((w1, w2)):
        assert [sum(a * x for a, x in zip(row, w)) for row in rd.cartan] == \
            [1 if j == i else 0 for j in range(2)]
    assert w0.apply(w1) == neg(w2)
    assert w0.apply(w2) == neg(w1)


def test_longest_element_d4_is_minus_one():
    w0 = longest_element(DynkinType.parse("D4"))
    assert w0.matrix == tuple(tuple(-x for x in row) for row in identity(4))


@pytest.mark.parametrize("t", admissible_types(6))
def test_longest_element_properties(t):
    rd = build_root_datum(t)
    w0 = longest_element(t)
    assert (w0 * w0).is_identity
    simples = identity(rd.rank)
    assert {w0.apply(a) for a in simples} == {neg(a) for a in simples}
    for a in rd.roots:
        if is_positive_root(a):
            assert not is_positive_root(w0.apply(a))
    assert len(w0.word) == len(rd.roots) // 2
