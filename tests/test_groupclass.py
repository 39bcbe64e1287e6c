"""Centers, fundamental groups, outer actions: the classification data."""

import pytest

from bundleaut.groupclass import (
    InvalidDegree,
    enumerate_forms,
    form_by_name,
    out_stabilizer,
    pairing,
    type_lattices,
)
from bundleaut.rootdata import DynkinType, admissible_types


def T(name):
    return DynkinType.parse(name)


def by_name(tname, form):
    return form_by_name(T(tname), form)


def unit(n, i):
    """omega_i (or omega_i^vee) in fundamental-(co)weight coordinates."""
    return tuple(1 if j == i else 0 for j in range(n))


def group_neg(group, x):
    return tuple((-a) % f for a, f in zip(x, group.invariant_factors))


# --- the five classification sub-tables (type A; B/C; D; E6; E7/E8/F4/G2) --
# Every entry is computed from lattice quotients and diagram symmetries; the
# expected strings are the standard classification values.

A_TABLE = [
    ("A1", "sc", "SL_2", "1", "Z/2Z", "{0}"),
    ("A1", "adjoint", "PSL_2", "1", "{0}", "Z/2Z"),
    ("A2", "sc", "SL_3", "Z/2Z", "Z/3Z", "{0}"),
    ("A2", "adjoint", "PSL_3", "Z/2Z", "{0}", "Z/3Z"),
    ("A3", "sc", "SL_4", "Z/2Z", "Z/4Z", "{0}"),
    ("A3", "mu2", "SL_4/mu_2", "Z/2Z", "Z/2Z", "Z/2Z"),
    ("A3", "adjoint", "PSL_4", "Z/2Z", "{0}", "Z/4Z"),
    ("A4", "sc", "SL_5", "Z/2Z", "Z/5Z", "{0}"),
    ("A5", "mu2", "SL_6/mu_2", "Z/2Z", "Z/3Z", "Z/2Z"),
    ("A5", "mu3", "SL_6/mu_3", "Z/2Z", "Z/2Z", "Z/3Z"),
    ("A6", "adjoint", "PSL_7", "Z/2Z", "{0}", "Z/7Z"),
    ("A7", "mu4", "SL_8/mu_4", "Z/2Z", "Z/2Z", "Z/4Z"),
]

BC_TABLE = [
    (f"B{n}", "sc", f"Spin_{2 * n + 1}", "1", "Z/2Z", "{0}") for n in range(2, 9)
] + [
    (f"B{n}", "adjoint", f"SO_{2 * n + 1}", "1", "{0}", "Z/2Z") for n in range(2, 9)
] + [
    (f"C{n}", "sc", f"Sp_{2 * n}", "1", "Z/2Z", "{0}") for n in range(3, 9)
] + [
    (f"C{n}", "adjoint", f"PSp_{2 * n}", "1", "{0}", "Z/2Z") for n in range(3, 9)
]

D_TABLE = [
    ("D4", "sc", "Spin_8", "S_3", "(Z/2Z)^2", "{0}"),
    ("D4", "so", "SO_8", "Z/2Z", "Z/2Z", "Z/2Z"),
    ("D4", "adjoint", "PSO_8", "S_3", "{0}", "(Z/2Z)^2"),
    ("D6", "sc", "Spin_12", "Z/2Z", "(Z/2Z)^2", "{0}"),
    ("D6", "semispin", "SemiSpin_12", "1", "Z/2Z", "Z/2Z"),
    ("D6", "so", "SO_12", "Z/2Z", "Z/2Z", "Z/2Z"),
    ("D6", "adjoint", "PSO_12", "Z/2Z", "{0}", "(Z/2Z)^2"),
    ("D8", "sc", "Spin_16", "Z/2Z", "(Z/2Z)^2", "{0}"),
    ("D8", "semispin", "SemiSpin_16", "1", "Z/2Z", "Z/2Z"),
    ("D8", "so", "SO_16", "Z/2Z", "Z/2Z", "Z/2Z"),
    ("D8", "adjoint", "PSO_16", "Z/2Z", "{0}", "(Z/2Z)^2"),
    ("D5", "sc", "Spin_10", "Z/2Z", "Z/4Z", "{0}"),
    ("D5", "so", "SO_10", "Z/2Z", "Z/2Z", "Z/2Z"),
    ("D5", "adjoint", "PSO_10", "Z/2Z", "{0}", "Z/4Z"),
    ("D7", "sc", "Spin_14", "Z/2Z", "Z/4Z", "{0}"),
    ("D7", "so", "SO_14", "Z/2Z", "Z/2Z", "Z/2Z"),
    ("D7", "adjoint", "PSO_14", "Z/2Z", "{0}", "Z/4Z"),
]

E6_TABLE = [
    ("E6", "sc", "E6_sc", "Z/2Z", "Z/3Z", "{0}"),
    ("E6", "adjoint", "E6_ad", "Z/2Z", "{0}", "Z/3Z"),
]

REST_TABLE = [
    ("E7", "sc", "E7_sc", "1", "Z/2Z", "{0}"),
    ("E7", "adjoint", "E7_ad", "1", "{0}", "Z/2Z"),
    ("E8", "sc", "E8", "1", "{0}", "{0}"),
    ("F4", "sc", "F4", "1", "{0}", "{0}"),
    ("G2", "sc", "G2", "1", "{0}", "{0}"),
]

ALL_TABLES = A_TABLE + BC_TABLE + D_TABLE + E6_TABLE + REST_TABLE


@pytest.mark.parametrize("tname,form,name,out,chars,pi1", ALL_TABLES)
def test_classification_tables(tname, form, name, out, chars, pi1):
    gf = by_name(tname, form)
    assert gf.display_name == name
    assert gf.out.symbol() == out
    assert gf.chars.structure.symbol() == chars
    assert gf.pi1.symbol() == pi1


@pytest.mark.parametrize("tname,count", [
    ("A1", 2), ("A2", 2), ("A3", 3), ("A5", 4), ("A7", 4),
    ("B5", 2), ("C6", 2),
    ("D4", 3),   # semispin classes identified with SO_8
    ("D5", 3), ("D6", 4), ("D8", 4),
    ("E6", 2), ("E7", 2), ("E8", 1), ("F4", 1), ("G2", 1),
])
def test_enumerate_forms_counts(tname, count):
    forms = enumerate_forms(T(tname))
    assert len(forms) == count
    assert len({f.display_name for f in forms}) == count


def test_complementarity_of_mu_and_annihilator():
    for t in admissible_types(8):
        total = type_lattices(t).chars.group.order
        for gf in enumerate_forms(t):
            assert gf.chars.structure.order * gf.pi1.order == total


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_dn_generator_swaps_spin_classes(n):
    t = DynkinType("D", n)
    lat = type_lattices(t)
    sigma = next(e for e in lat.out_elements if not e.is_identity)
    wn1 = lat.chars.project(unit(n, n - 2))
    wn = lat.chars.project(unit(n, n - 1))
    assert wn != wn1
    assert lat.chars.project(sigma.apply(unit(n, n - 2))) == wn
    assert lat.chars.project(sigma.apply(unit(n, n - 1))) == wn1


def test_e6_generator_inverts_w1():
    t = T("E6")
    lat = type_lattices(t)
    w1 = unit(6, 0)
    sigma = next(e for e in lat.out_elements if not e.is_identity)
    image = lat.chars.project(sigma.apply(w1))
    assert image == group_neg(lat.chars.group, lat.chars.project(w1))


def test_d4_s3_permutes_the_three_classes():
    t = T("D4")
    lat = type_lattices(t)
    eps1 = unit(4, 0)  # omega_1 = eps_1
    trio = [eps1, unit(4, 2), unit(4, 3)]
    classes = {lat.chars.project(v) for v in trio}
    assert len(classes) == 3
    permutations = set()
    for elem in lat.out_elements:
        images = tuple(lat.chars.project(elem.apply(v)) for v in trio)
        assert set(images) == classes
        permutations.add(images)
    assert len(permutations) == 6  # faithful S_3 action


def test_out_action_on_pi1_examples():
    # PSL_n: the generator inverts Z/n
    gf = by_name("A3", "adjoint")
    act = gf.pi1_action
    g = next(n for n in act.names() if n != "e")
    assert all(act.apply(g, x) == group_neg(act.group, x) for x in act.group.elements())
    # PSO_{4l}: the generator swaps the two Z/2 coordinates
    gf = by_name("D6", "adjoint")
    act = gf.pi1_action
    g = next(n for n in act.names() if n != "e")
    assert act.apply(g, (1, 0)) == (0, 1)
    assert act.apply(g, (1, 1)) == (1, 1)
    # trivial-Out forms only carry the identity action
    gf = by_name("D6", "semispin")
    act = gf.pi1_action
    assert act.names() == ("e",)
    assert all(act.apply("e", x) == x for x in act.group.elements())


def test_out_acts_trivially_on_z2_factors():
    for tname, form in [("D6", "so"), ("D4", "so"), ("D7", "so")]:
        act = by_name(tname, form).pi1_action
        assert act.group.invariant_factors == (2,)
        for name in act.names():
            assert act.apply(name, (1,)) == (1,)


def test_out_stabilizers():
    # 2 delta = 0 keeps the full outer group in type A
    gf = by_name("A3", "mu2")
    assert out_stabilizer(gf, (0,)).symbol() == "Z/2Z"
    assert out_stabilizer(gf, (1,)).symbol() == "Z/2Z"
    gf = by_name("A3", "adjoint")
    assert out_stabilizer(gf, (2,)).symbol() == "Z/2Z"
    assert out_stabilizer(gf, (1,)).symbol() == "1"
    # PSO_8: zero keeps S_3, nonzero labels keep a reflection
    gf = by_name("D4", "adjoint")
    assert out_stabilizer(gf, (0, 0)).symbol() == "S_3"
    for delta in [(1, 0), (0, 1), (1, 1)]:
        assert out_stabilizer(gf, delta).symbol() == "Z/2Z"
    # PSO_{4l}: diagonal labels keep the swap
    gf = by_name("D6", "adjoint")
    assert out_stabilizer(gf, (1, 1)).symbol() == "Z/2Z"
    assert out_stabilizer(gf, (1, 0)).symbol() == "1"
    # PSO_{4l+2}: 2-torsion labels keep the inversion
    gf = by_name("D5", "adjoint")
    assert out_stabilizer(gf, (2,)).symbol() == "Z/2Z"
    assert out_stabilizer(gf, (1,)).symbol() == "1"


def test_out_stabilizer_of_zero_is_out():
    for t in admissible_types(6):
        for gf in enumerate_forms(t):
            zero = gf.pi1.zero()
            assert out_stabilizer(gf, zero).symbol() == gf.out.symbol()


def test_invalid_delta_rejected():
    gf = by_name("D4", "adjoint")
    with pytest.raises(InvalidDegree):
        out_stabilizer(gf, (2, 0))
    with pytest.raises(InvalidDegree):
        out_stabilizer(gf, (0,))


def test_semispin_out_is_trivial_for_large_even_rank():
    for tname in ["D6", "D8"]:
        assert by_name(tname, "semispin").out.symbol() == "1"


def test_pairing_is_out_equivariant():
    # consistency of the dual-side action with the character-side action
    for tname in ["A3", "D5", "D6", "E6"]:
        t = T(tname)
        lat = type_lattices(t)
        for elem in lat.out_elements:
            for a in lat.chars.group.elements():
                for b in lat.center.group.elements():
                    ia = lat.chars.project(elem.apply(lat.chars.lift(a)))
                    ib = lat.center.project(elem.apply(lat.center.lift(b)))
                    assert pairing(lat, ia, ib) == pairing(lat, a, b)


def test_char_action_matches_table_rows():
    # Spin_{4l}: the swap permutes the two Pic factors
    act = by_name("D6", "sc").chars_action
    g = next(n for n in act.names() if n != "e")
    assert act.apply(g, (1, 0)) == (0, 1)
    # Spin_{4l+2}: the generator inverts Z/4
    act = by_name("D5", "sc").chars_action
    g = next(n for n in act.names() if n != "e")
    assert act.apply(g, (1,)) == (3,)
    # E6 sc: inversion on Z/3
    act = by_name("E6", "sc").chars_action
    g = next(n for n in act.names() if n != "e")
    assert act.apply(g, (1,)) == (2,)


def test_d4_out_is_gl2_f2():
    import itertools

    act = by_name("D4", "adjoint").pi1_action
    mats = set()
    for name in act.names():
        m = act.matrix(name)
        mats.add(tuple(tuple(x % 2 for x in row) for row in m))
    gl2 = set()
    for entries in itertools.product((0, 1), repeat=4):
        a, b, c, d = entries
        if (a * d - b * c) % 2 == 1:
            gl2.add(((a, b), (c, d)))
    assert mats == gl2


def test_fundamental_group_matches_coweight_route():
    # building a form cross-checks pi1 against the coweight route; exercise broadly
    for t in admissible_types(8):
        for gf in enumerate_forms(t):
            mu_order = len(gf.mu.elements)
            assert gf.pi1.order == mu_order


def test_action_set_closed_under_composition():
    for tname, form in [("D4", "adjoint"), ("D6", "sc"), ("A3", "adjoint")]:
        act = by_name(tname, form).pi1_action
        elements = list(act.group.elements())
        maps = {name: tuple(act.apply(name, x) for x in elements)
                for name in act.names()}
        for a in act.names():
            for b in act.names():
                composed = tuple(act.apply(a, act.apply(b, x)) for x in elements)
                assert composed in maps.values()
