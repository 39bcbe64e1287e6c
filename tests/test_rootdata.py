"""Root-datum construction: counts, invariants, and lattice coordinates."""

from fractions import Fraction
from operator import mul

import oracles
import pytest
from conftest import neg, scaled_inverse, unit

from bundleaut.finabel import LatticeQuotient
from bundleaut.groupclass import type_lattices
from bundleaut.rootdata import (
    DynkinType,
    InvalidType,
    RootDatum,
    admissible_types,
    ambient_simple_roots,
    build_root_datum,
    cartan_matrix,
)


def dot(u, v):
    return sum(map(mul, u, v))


def reflect(cartan, i, v):
    """s_i(v) = v - <v, alpha_i^vee> alpha_i in simple-root coordinates."""
    c = dot(cartan[i], v)
    return v[:i] + (v[i] - c,) + v[i + 1:]


def pair_with_simple_coroots(cartan, v):
    """<v, alpha_i^vee> = sum_j A[i][j] v_j for v in simple-root coordinates."""
    return [dot(row, v) for row in cartan]


def ambient_simples(t):
    """The printed ambient simple roots, as exact rationals: the package
    holds them with every coordinate doubled."""
    _, doubled = ambient_simple_roots(t)
    return tuple(tuple(Fraction(x, 2) for x in a) for a in doubled)


def ambient_image(t, v):
    """sum_j v_j alpha_j in the printed ambient coordinates."""
    return tuple(dot(v, column) for column in zip(*ambient_simples(t)))


def coroot_coordinates(t, a):
    """a^vee = 2a/(a,a) in simple-coroot coordinates: a_j (alpha_j, alpha_j)/(a, a)."""
    simples = ambient_simples(t)
    image = ambient_image(t, a)
    norm = dot(image, image)
    return tuple(x * dot(s, s) / norm for x, s in zip(a, simples))


def full_closure_oracle(t):
    """The root datum from the closure of all the roots, negative ones
    included, under every simple reflection, each table entry read off the
    closure, and the pairings of each positive root beta the nonzero entries
    of A beta: the construction the positive-half closure replaced."""
    cartan = cartan_matrix(t)
    r = t.rank
    found = [unit(r, i) for i in range(r)]
    index = {root: k for k, root in enumerate(found)}
    images = [[] for _ in range(r)]
    for k, root in enumerate(found):
        for i in range(r):
            image = reflect(cartan, i, root)
            if image not in index:
                index[image] = len(found)
                found.append(image)
            images[i].append(index[image])
    order = sorted(range(len(found)), key=found.__getitem__)
    position = [0] * len(found)
    for new, old in enumerate(order):
        position[old] = new
    roots = tuple(found[old] for old in order)
    pairings = tuple({i: c for i, c in enumerate(pair_with_simple_coroots(cartan, root)) if c}
                     for root in roots[len(roots) // 2:])
    return RootDatum(dynkin=t, cartan=cartan, roots=roots,
                     reflections=tuple(tuple(position[image[old]] for old in order)
                                       for image in images),
                     pairings=pairings)


def closure_oracle(simples):
    """Independent breadth-first closure under the reflection formula, on
    the ambient simple roots."""
    def reflect(v, a):
        c = 2 * sum(x * y for x, y in zip(v, a)) / sum(x * x for x in a)
        return tuple(x - c * y for x, y in zip(v, a))

    roots = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for r in frontier:
            for a in simples:
                img = reflect(r, a)
                if img not in roots:
                    roots.add(img)
                    new.append(img)
        frontier = new
    return roots


@pytest.mark.parametrize("name,count", [
    ("A1", 2),        # rank-1 symmetry: {a, -a}
    ("A2", 6),
    ("B2", 8),
    ("C3", 18),
    ("D4", 24),
    ("D5", 40),
    ("E6", 72),
    ("E7", 126),
    ("E8", 240),
    ("F4", 48),
    ("G2", 12),
])
def test_root_counts(name, count):
    t = DynkinType.parse(name)
    rd = build_root_datum(t)
    assert len(rd.roots) == count
    ambient = closure_oracle(ambient_simples(t))
    assert {ambient_image(t, a) for a in rd.roots} == ambient


@pytest.mark.parametrize("family,rank", [
    ("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3),
])
def test_inadmissible_types_rejected(family, rank):
    with pytest.raises(InvalidType):
        DynkinType(family, rank)


def test_parse_round_trip():
    assert DynkinType.parse("e6") == DynkinType("E", 6)
    assert DynkinType.parse("D_5") == DynkinType("D", 5)
    assert DynkinType.parse(" e 8 ") == DynkinType("E", 8)
    with pytest.raises(InvalidType):
        DynkinType.parse("H4")


@pytest.mark.parametrize("text", ["A²", "E⁸", "B₃", "D_⁵"])
def test_parse_rejects_digits_that_int_rejects(text):
    with pytest.raises(InvalidType):
        DynkinType.parse(text)


@pytest.mark.parametrize("t", admissible_types(6))
def test_root_system_invariants(t):
    rd = build_root_datum(t)
    roots = set(rd.roots)
    assert len(roots) % 2 == 0
    assert all(neg(a) in roots for a in roots)
    # Cartan shape
    for i in range(rd.rank):
        assert rd.cartan[i][i] == 2
        for j in range(rd.rank):
            if i != j:
                assert rd.cartan[i][j] in (0, -1, -2, -3)
    # closed under every simple reflection, bijectively
    for i in range(rd.rank):
        image = {reflect(rd.cartan, i, a) for a in roots}
        assert image == roots
    # <a, a^vee> = 2, with a^vee an integer combination of simple coroots
    for a in rd.roots:
        cv = coroot_coordinates(t, a)
        assert all(c.denominator == 1 for c in cv)
        assert dot(cv, pair_with_simple_coroots(rd.cartan, a)) == 2
    # weights and coweights are dual to the simple (co)roots: with
    # <omega_i, omega_k^vee> = inv[k][i] / e, alpha_j^vee = sum_k A[j][k] omega_k^vee
    # and alpha_j = sum_k A[k][j] omega_k
    r = rd.rank
    # column i of N = e A^-1 is e A^-1 e_i
    inv, e = scaled_inverse(rd.cartan)
    assert e == type_lattices(t).exponent
    for i in range(r):
        for j in range(r):
            assert sum(rd.cartan[j][k] * inv[k][i] for k in range(r)) == e * (i == j)
            assert sum(rd.cartan[k][j] * inv[i][k] for k in range(r)) == e * (i == j)


CLOSURE_TYPES = admissible_types(16) + [
    DynkinType("D", 40), DynkinType("B", 30), DynkinType("C", 25), DynkinType("A", 50)]


@pytest.mark.parametrize("t", CLOSURE_TYPES, ids=str)
def test_reflection_tables_entry_by_entry(t):
    # the closure runs on the positive roots and reads the negative half
    # and the tables off by symmetry; every entry is checked here
    rd = build_root_datum(t)
    half = len(rd.roots) // 2
    # the oracle's closure of the unit vectors, sorted
    assert list(rd.roots) == oracles._roots_in_simple_coordinates(rd.cartan)
    assert rd.roots[:half] == tuple(neg(a) for a in reversed(rd.roots[half:]))
    assert all(min(a) >= 0 for a in rd.roots[half:])
    for i, table in enumerate(rd.reflections):
        assert len(table) == len(rd.roots)
        for k, root in enumerate(rd.roots):
            assert rd.roots[table[k]] == reflect(rd.cartan, i, root)


@pytest.mark.parametrize("t", CLOSURE_TYPES, ids=str)
def test_root_datum_matches_the_full_closure(t):
    assert build_root_datum(t) == full_closure_oracle(t)


def test_reflection_tables_share_one_int_per_root_index():
    # the r tables of D_20 hold 20 * 760 entries, drawn from 760 int objects
    rd = build_root_datum(DynkinType("D", 20))
    assert len({id(x) for table in rd.reflections for x in table}) <= len(rd.roots) == 760


@pytest.mark.parametrize("t", admissible_types(16))
def test_diagram_cartan_matrix_is_that_of_the_ambient_roots(t):
    # the Cartan matrix comes from the Dynkin diagram; the printed ambient
    # roots must have it, 2 (a_j, a_i) / (a_i, a_i) in exact rationals, on
    # the doubled integer roots, as the ratio ignores the scale
    _, doubled = ambient_simple_roots(t)
    assert cartan_matrix(t) == tuple(tuple(Fraction(2 * dot(b, a), dot(a, a)) for b in doubled)
                                     for a in doubled)


@pytest.mark.parametrize("name,planes", [
    ("A1", 1),
    ("A2", 3),
    ("G2", 6),  # 12 roots / 2; also h*r = 6*2
])
def test_hyperplane_counts(name, planes):
    # the roots pair off as {a, -a}, one pair per hyperplane
    rd = build_root_datum(DynkinType.parse(name))
    hp = {frozenset((a, neg(a))) for a in rd.roots}
    assert len(hp) == planes
    seen = [a for plane in hp for a in plane]
    assert sorted(seen) == sorted(rd.roots)  # each root in exactly one plane


def test_positive_root_split():
    # every root has simple-root coordinates all >= 0 or all <= 0
    rd = build_root_datum(DynkinType.parse("F4"))
    pos = [a for a in rd.roots if all(c >= 0 for c in a)]
    assert len(pos) == len(rd.roots) // 2
    assert all(neg(a) in rd.roots for a in pos)
    assert all(all(c <= 0 for c in a) for a in set(rd.roots) - set(pos))


def test_coroot_map():
    # a -> a^vee = 2a/(a,a) is a bijection onto the coroots, which in
    # simple-coroot coordinates are the roots of the transposed Cartan matrix
    t = DynkinType.parse("B2")
    rd = build_root_datum(t)
    coroots = {tuple(int(c) for c in coroot_coordinates(t, a)) for a in rd.roots}
    assert len(coroots) == len(rd.roots)
    assert coroots == set(oracles._roots_in_simple_coordinates(tuple(zip(*rd.cartan))))


def test_ranks_beyond_default_bound():
    # the enumeration bound is configurable; construction itself is not capped
    rd = build_root_datum(DynkinType("A", 8))
    assert len(rd.roots) == 72
    rd = build_root_datum(DynkinType("B", 9))
    assert len(rd.roots) == 162
    assert DynkinType("A", 8) not in admissible_types(8)
    assert DynkinType("A", 8) in admissible_types(9)


def test_e6_lattice_matches_printed_coordinates():
    t = DynkinType.parse("E6")
    rd = build_root_datum(t)
    # 3 w1 = 4a1 + 3a2 + 5a3 + 6a4 + 4a5 + 2a6 (Bourbaki, plate V) ...
    three_w1 = (4, 3, 5, 6, 4, 2)
    assert pair_with_simple_coroots(rd.cartan, three_w1) == [3, 0, 0, 0, 0, 0]
    # ... which in the printed coordinates is w1 = (2/3)(e8 - e7 - e6)
    third = Fraction(2, 3)
    w1 = tuple(x / 3 for x in ambient_image(t, three_w1))
    assert w1 == (0, 0, 0, 0, 0, -third, -third, third)
    # the root span is cut out by xi_7 = xi_6 and xi_8 = -xi_6
    for a in rd.roots:
        image = ambient_image(t, a)
        assert image[6] == image[5] and image[7] == -image[5]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_dn_weight_classes(n):
    t = DynkinType("D", n)
    rd = build_root_datum(t)
    # 2 w1 = 2a1 + ... + 2a_{n-2} + a_{n-1} + a_n = 2 eps_1, so eps_1 = w1,
    # the unit vector e_1 in fundamental-weight coordinates
    two_w1 = (2,) * (n - 2) + (1, 1)
    assert pair_with_simple_coroots(rd.cartan, two_w1) == [2] + [0] * (n - 1)
    assert ambient_image(t, two_w1) == (2,) + (0,) * (n - 1)
    # P/Q: the simple roots in weight coordinates are the columns of A
    q = LatticeQuotient(list(zip(*rd.cartan)))
    eps1 = unit(n, 0)
    zero = q.group.zero()
    cls = {
        "0": zero,
        "eps1": q.project(eps1),
        "wn": q.project(unit(n, n - 1)),
        "wn1": q.project(unit(n, n - 2)),
    }
    assert len(set(cls.values())) == 4 == q.group.order
    double_wn = q.group.add(cls["wn"], cls["wn"])
    if n % 2:
        # 2 w_n = eps_1 and 3 w_n = w_{n-1}
        assert double_wn == cls["eps1"]
        assert q.group.add(double_wn, cls["wn"]) == cls["wn1"]
    else:
        assert double_wn == zero
        assert q.group.add(cls["wn"], cls["wn1"]) == cls["eps1"]
