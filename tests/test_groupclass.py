"""Centers, fundamental groups, outer actions: the classification data."""

import os
import subprocess
import sys
from pathlib import Path

import oracles
import pytest
from conftest import lift, package_caches, unit

import bundleaut
from bundleaut import moduli
from bundleaut.finabel import (
    Subgroup,
    enumerate_subgroups,
    smith_normal_form,
    sublattice_quotient,
)
from bundleaut.groupclass import (
    InvalidDegree,
    _cartan_automorphisms,
    enumerate_forms,
    form_by_name,
    out_stabilizer,
    pairing,
    type_lattices,
)
from bundleaut.rootdata import MAX_RANK, DynkinType, admissible_types, cartan_matrix


def T(name):
    return DynkinType.parse(name)


def by_name(tname, form):
    return form_by_name(T(tname), form)


def group_neg(group, x):
    return tuple((-a) % f for a, f in zip(x, group.invariant_factors))


def group_symbol(factors):
    """{0}, Z/nZ or (Z/nZ)^k: the invariant factors of every form are equal."""
    assert len(set(factors)) <= 1
    cyclic = f"Z/{factors[0]}Z" if factors else "{0}"
    return f"({cyclic})^{len(factors)}" if len(factors) > 1 else cyclic


# --- the classification table: every form of every type of rank <= 8 -------
# Every entry is computed from lattice quotients and diagram symmetries; the
# expected names, Out(G), Hom(Z(G), G_m) and pi_1(G) are the oracle's
# Bourbaki values.

ALL_TABLES = [
    (f"{f.family}{f.rank}", f.token, f.name, {1: "1", 2: "Z/2Z", 6: "S_3"}[f.out_order],
     group_symbol(f.chars), group_symbol(f.pi1))
    for f in oracles.all_forms()
]


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


def test_no_token_selects_two_forms_of_a_type():
    for t in admissible_types(8):
        tokens = [token for gf in enumerate_forms(t) for token in gf.tokens]
        assert len(tokens) == len(set(tokens)), t


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
    g = next(n for n in act.actors if n != "e")
    assert all(act.apply(g, x) == group_neg(act.group, x) for x in act.group.elements())
    # PSO_{4l}: the generator swaps the two Z/2 coordinates
    gf = by_name("D6", "adjoint")
    act = gf.pi1_action
    g = next(n for n in act.actors if n != "e")
    assert act.apply(g, (1, 0)) == (0, 1)
    assert act.apply(g, (1, 1)) == (1, 1)
    # trivial-Out forms only carry the identity action
    gf = by_name("D6", "semispin")
    act = gf.pi1_action
    assert tuple(act.actors) == ("e",)
    assert all(act.apply("e", x) == x for x in act.group.elements())


def test_out_acts_trivially_on_z2_factors():
    for tname, form in [("D6", "so"), ("D4", "so"), ("D7", "so")]:
        act = by_name(tname, form).pi1_action
        assert act.group.invariant_factors == (2,)
        for name in act.actors:
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


def test_so_subgroup_is_the_shared_instance():
    # every subgroup of a centre is the one instance `Subgroup.from_elements`
    # keeps for its element set, the SO kernel included
    for n in range(4, 17):
        mu = by_name(f"D{n}", "so").mu
        assert mu is Subgroup.from_elements(mu.ambient, mu.elements)
        assert mu.elements in enumerate_subgroups(mu.ambient)
        assert len(mu.elements) == 2


def test_semispin_out_is_trivial_for_large_even_rank():
    for tname in ["D6", "D8"]:
        assert by_name(tname, "semispin").out.symbol() == "1"


def test_pairing_is_out_equivariant():
    # consistency of the dual-side action with the character-side action, on
    # every pair of elements; `type_lattices` checks the generators only
    for t in admissible_types(16):
        lat = type_lattices(t)
        for name in lat.chars_action.actors:
            for a in lat.chars.group.elements():
                ia = lat.chars_action.apply(name, a)
                for b in lat.center.group.elements():
                    ib = lat.center_action.apply(name, b)
                    assert pairing(lat, ia, ib) == pairing(lat, a, b), (t, name)


# the types of the table up to rank 16, and the largest of the A and D
# families, whose centres are the largest (Z/80Z) and have both shapes
SC_ACTION_TYPES = admissible_types(16) + [T("A79"), T("D79"), T("D80")]


def lifted_image(quotient, elem, x):
    """The class of sigma(lift(x)): the per-element route that the
    type-level actions replace."""
    return quotient.project(elem.apply(lift(quotient, x)))


def sides(lat):
    return [(lat.chars, lat.chars_action), (lat.center, lat.center_action)]


@pytest.mark.parametrize("t", SC_ACTION_TYPES, ids=lambda t: t.label)
def test_sc_actions_are_the_lifted_permutations(t):
    lat = type_lattices(t)
    for quotient, action in sides(lat):
        assert tuple(action.actors) == tuple(elem.name for elem in lat.out_elements)
        for elem in lat.out_elements:
            for x in quotient.group.elements():
                assert action.apply(elem.name, x) == lifted_image(quotient, elem, x)


@pytest.mark.parametrize("t", SC_ACTION_TYPES, ids=lambda t: t.label)
def test_sc_actions_identity_and_composition(t):
    # D4's S_3 is not commutative, so the order of composition is tested too
    lat = type_lattices(t)
    by_perm = {elem.node_permutation: elem.name for elem in lat.out_elements}
    identity = next(elem.name for elem in lat.out_elements if elem.is_identity)
    for quotient, action in sides(lat):
        elements = list(quotient.group.elements())
        assert all(action.apply(identity, x) == x for x in elements)
        for s in lat.out_elements:
            for u in lat.out_elements:
                # s.apply(u.apply(v)) moves coordinate i to s(u(i))
                st = by_perm[tuple(s.node_permutation[i] for i in u.node_permutation)]
                for x in elements:
                    assert action.apply(s.name, action.apply(u.name, x)) == action.apply(st, x)


def test_char_action_matches_table_rows():
    # Spin_{4l}: the swap permutes the two Pic factors
    act = by_name("D6", "sc").chars_action
    g = next(n for n in act.actors if n != "e")
    assert act.apply(g, (1, 0)) == (0, 1)
    # Spin_{4l+2}: the generator inverts Z/4
    act = by_name("D5", "sc").chars_action
    g = next(n for n in act.actors if n != "e")
    assert act.apply(g, (1,)) == (3,)
    # E6 sc: inversion on Z/3
    act = by_name("E6", "sc").chars_action
    g = next(n for n in act.actors if n != "e")
    assert act.apply(g, (1,)) == (2,)


def test_d4_out_is_gl2_f2():
    import itertools

    act = by_name("D4", "adjoint").pi1_action
    mats = set()
    for name in act.actors:
        m = act.actors[name]
        mats.add(tuple(tuple(x % 2 for x in row) for row in m))
    gl2 = set()
    for entries in itertools.product((0, 1), repeat=4):
        a, b, c, d = entries
        if (a * d - b * c) % 2 == 1:
            gl2.add(((a, b), (c, d)))
    assert mats == gl2


def pi1_lattice_quotient(lat, mu):
    """X_*(T_G)/Q^vee in coweight coordinates, where the coroots are the rows
    of the Cartan matrix and X_* is spanned by them and lifts of mu: the
    rank-r route that building a form ran before it checked pi_1 by duality."""
    coroots = lat.cartan
    rows = [list(c) for c in coroots] + [list(lift(lat.center, g)) for g in mu.basis]
    return sublattice_quotient(rows, coroots, smith_normal_form(rows))[0].group


def test_fundamental_group_matches_coweight_route():
    # building a form checks pi_1 = mu against (P/Q)/mu^perp; the coweight
    # lattice X_*/Q^vee is a third route, kept here
    types = admissible_types(12) + [T(f"{f}{n}") for f in "AD" for n in (16, 20)]
    for t in types:
        lat = type_lattices(t)
        for gf in enumerate_forms(t):
            assert gf.pi1 == pi1_lattice_quotient(lat, gf.mu), gf.display_name
            assert gf.pi1.order == len(gf.mu.elements)


def test_action_set_closed_under_composition():
    for tname, form in [("D4", "adjoint"), ("D6", "sc"), ("A3", "adjoint")]:
        act = by_name(tname, form).pi1_action
        elements = list(act.group.elements())
        maps = {name: tuple(act.apply(name, x) for x in elements)
                for name in act.actors}
        for a in act.actors:
            for b in act.actors:
                composed = tuple(act.apply(a, act.apply(b, x)) for x in elements)
                assert composed in maps.values()


def lexicographic_automorphisms(cartan):
    """The exhaustive search the package used before its breadth-first one:
    every image for node 0, each partial map extended by checking the new
    node against every earlier one (about r^4 work), in lexicographic order."""
    r = len(cartan)
    perms = []

    def extend(partial):
        i = len(partial)
        if i == r:
            perms.append(tuple(partial))
            return
        for img in range(r):
            if img in partial:
                continue
            if all(cartan[img][partial[j]] == cartan[i][j]
                   and cartan[partial[j]][img] == cartan[j][i]
                   for j in range(i)):
                extend(partial + [img])

    extend([])
    return perms


@pytest.mark.parametrize("t", admissible_types(12) + [T("A40"), T("D30")],
                         ids=lambda t: t.label)
def test_cartan_automorphisms_match_the_exhaustive_search(t):
    cartan = cartan_matrix(t)
    assert _cartan_automorphisms(cartan) == lexicographic_automorphisms(cartan)


def test_cartan_automorphisms_need_no_recursion():
    # the distances to the leaves are found breadth first, with no recursion,
    # so a path of 300 nodes, with its two automorphisms, runs under a
    # recursion limit of 200
    n = 300
    cartan = tuple(tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n))
                   for i in range(n))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        perms = _cartan_automorphisms(cartan)
    finally:
        sys.setrecursionlimit(limit)
    assert perms == [tuple(range(n)), tuple(reversed(range(n)))]


def test_cartan_automorphisms_of_every_type_in_range():
    # Out(G^sc) for every type the command line takes, against the closed
    # forms of `oracles.forms`: the identity first, and each permutation
    # keeping the whole matrix, not only the entries on the edges
    for t in admissible_types(MAX_RANK):
        cartan = cartan_matrix(t)
        perms = _cartan_automorphisms(cartan)
        sc = next(f for f in oracles.forms(t.family, t.rank) if f.token == "sc")
        nodes = range(t.rank)
        assert len(perms) == sc.out_order, t.label
        assert perms[0] == tuple(nodes), t.label
        assert all(cartan[p[i]][p[j]] == cartan[i][j]
                   for p in perms for i in nodes for j in nodes), t.label


def test_hashes_taken_once_keep_value_semantics(fresh_caches):
    # a type hashes as its tuple (family, rank) and a form as its display
    # name, which no two forms share; a form rebuilt after the caches are
    # cleared is equal to the old one, with the same hash, so a cache keyed
    # by either finds it
    types = admissible_types(16)
    forms = [gf for t in moduli.table_types(16) for gf in enumerate_forms(t)]
    for t in types:
        assert hash(t) == hash((t.family, t.rank))
    for gf in forms:
        assert hash(gf) == hash(gf.display_name)
    assert len({gf.display_name for gf in forms}) == len(forms)
    for cache in package_caches():
        cache.cache_clear()
    rebuilt = [gf for t in moduli.table_types(16) for gf in enumerate_forms(t)]
    assert all(new is not old for new, old in zip(rebuilt, forms))
    assert rebuilt == forms
    assert [hash(gf) for gf in rebuilt] == [hash(gf) for gf in forms]
    again = [DynkinType(t.family, t.rank) for t in types]
    assert again == types and [hash(t) for t in again] == [hash(t) for t in types]
    assert {gf: gf.display_name for gf in forms} == {gf: gf.display_name for gf in rebuilt}


DUMP_FORMS = """
import pickle, sys
from bundleaut.groupclass import enumerate_forms
from bundleaut.rootdata import DynkinType
with open(sys.argv[1], "wb") as f:
    pickle.dump(enumerate_forms(DynkinType("D", 4)), f)
"""

LOAD_FORMS = """
import pickle, sys
from bundleaut.groupclass import enumerate_forms
from bundleaut.rootdata import DynkinType
with open(sys.argv[1], "rb") as f:
    loaded = pickle.load(f)
built = enumerate_forms(DynkinType("D", 4))
assert loaded == built and all(a is not b for a, b in zip(loaded, built))
assert [hash(gf) for gf in loaded] == [hash(gf) for gf in built]
assert [hash(gf.dynkin) for gf in loaded] == [hash(("D", 4))] * len(built)
assert [{gf: gf.display_name for gf in built}[gf] for gf in loaded] == [
    gf.display_name for gf in built]
"""


def test_a_pickled_form_takes_the_hash_of_the_process_that_loads_it(tmp_path):
    # a str hashes differently under another PYTHONHASHSEED, so a pickle of
    # a type or a form carries no hash, and the loading process takes its own
    src = str(Path(bundleaut.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for seed, script in (("1", DUMP_FORMS), ("2", LOAD_FORMS)):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "forms.pickle")],
            stderr=subprocess.PIPE, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
