"""Langlands duality as a whole-range check of the group side.

The dual type t^vee has the Cartan matrix A^T, up to a relabelling of the
nodes: B and C are exchanged, A, D and E are self-dual, and B2, F4 and G2
are self-dual with their nodes reversed.  In fundamental-(co)weight
coordinates P/Q of t is Z^r modulo the columns of A, and P^vee/Q^vee of
t^vee is Z^r modulo the rows of A^T: one quotient of Z^r, up to the
relabelling, with the same basis lifts.  So the dual of G = G^sc/mu is
G^vee = (G^vee)^sc/mu^perp (Bourbaki, Lie Groups and Lie Algebras VI 1.10),
and
- pi_1(G^vee) = Hom(Z(G), G_m) and Hom(Z(G^vee), G_m) = pi_1(G);
- |Out(G^vee)| = |Out(G)|, and the mu^perp of G^vee is back in the
  Out-orbit of mu;
- Out(G^vee) acts on pi_1(G^vee) = Hom(Z(G), G_m) by the transpose-inverse
  of its action on Z(G^sc), through the pairing, as Out(G) acts on the
  characters of G.
On the Hitchin side t and t^vee have the same degrees, |W| and orbit counts,
as alpha -> alpha^vee is a W-equivariant bijection of the roots; this is
checked up to rank 24.

The dual type and the dual form are found from the package's Cartan
matrices and subgroups alone, with no rule per family; the display names
are compared with `oracles.forms`.  The types are every type of rank at most
16 and the classical types at the ranks of `SPREAD`, up to MAX_TABLE_RANK.
"""

from functools import cache

import oracles
import pytest
from conftest import lift, unit

from bundleaut import weyl
from bundleaut.groupclass import enumerate_forms, pairing, type_lattices
from bundleaut.rootdata import MAX_TABLE_RANK, DynkinType, admissible_types, cartan_matrix

# ranks past 16: A_n with n + 1 of many divisors (24, 36, 48), odd and even
# D, and the table's ceiling
SPREAD = (17, 23, 24, 35, 47, 48, MAX_TABLE_RANK)
TYPES = [t for t in admissible_types(17) if t.rank <= 16] + [
    DynkinType(family, n) for n in SPREAD for family in "ABCD"]


lattices = cache(type_lattices)  # each type's, read for it and for its dual


@cache
def dual_type(t: DynkinType) -> tuple[DynkinType, tuple[int, ...]]:
    """The type u of t's rank whose Cartan matrix is A^T up to a relabelling
    p of the nodes, the identity or the reversal, tried in that order:
    cartan(u)[i][j] = A[p(j)][p(i)].  There must be exactly one such u."""
    a = cartan_matrix(t)
    r = t.rank
    found = []
    for u in admissible_types(r + 1):
        if u.rank != r:
            continue
        b = cartan_matrix(u)
        for p in (tuple(range(r)), tuple(reversed(range(r)))):
            if all(b[i][j] == a[p[j]][p[i]] for i in range(r) for j in range(r)):
                found.append((u, p))
                break
    assert len(found) == 1, (t, found)
    return found[0]


@pytest.mark.parametrize("t", TYPES, ids=str)
def test_the_dual_cartan_matrix_is_the_transpose(t):
    u, p = dual_type(t)
    assert dual_type(u) == (t, p)
    # B and C are exchanged past rank 2, and the nodes are reversed for B2,
    # F4 and G2 only
    assert (u == t) == (t.family not in "BC" or t.name == "B2")
    assert (p != tuple(range(t.rank))) == (t.name in ("B2", "F4", "G2"))


def transport(source, target, p, inverse=False) -> dict:
    """The isomorphism between a quotient of t (`source`) and one of t^vee
    (`target`) that Z^r induces, with coordinate i of t^vee read from p(i)
    of t, or the other way round with `inverse`; checked to be a bijection."""
    def relabel(v):
        if inverse:
            w = [0] * len(v)
            for i, x in zip(p, v):
                w[i] = x
            return tuple(w)
        return tuple(v[i] for i in p)

    iso = {x: target.project(relabel(lift(source, x))) for x in source.group.elements()}
    assert len(set(iso.values())) == source.group.order == target.group.order
    return iso


def image(sub, action, name, x) -> tuple[int, ...]:
    """The image of the element x of a subgroup under the matrix `name` of
    an action on the subgroup's coordinates, in the ambient group."""
    coords = action.apply(name, sub.to_coords(x))
    return sub.ambient.reduce([sum(c * b[j] for c, b in zip(coords, sub.basis))
                               for j in range(len(sub.ambient.invariant_factors))])


def assert_contragredient(lat, moves):
    """<sigma a, sigma z> = <a, z> for each (sigma, a, sigma a) of `moves`,
    a in P/Q, and each generator z of Z(G^sc) = P^vee/Q^vee, so for every z:
    sigma acts on the characters by the transpose-inverse of its action on
    the centre.  sigma z is the class of the permuted lift of z, read from
    no action matrix."""
    center = lat.center
    k = len(center.group.invariant_factors)
    for elem, a, moved in moves:
        for z in (unit(k, i) for i in range(k)):
            moved_z = center.project(elem.apply(lift(center, z)))
            assert pairing(lat, moved, moved_z) == pairing(lat, a, z), (elem, a, moved, z)


@pytest.mark.parametrize("t", TYPES, ids=str)
def test_every_form_has_one_dual_form(t):
    u, p = dual_type(t)
    lat, dual_lat = lattices(t), lattices(u)
    # P/Q of t is the centre of t^vee, and the centre of t is P/Q of t^vee
    to_dual = transport(lat.chars, dual_lat.center, p)
    from_dual = transport(dual_lat.chars, lat.center, p, inverse=True)
    back = {y: x for x, y in to_dual.items()}
    # Out(t^vee) as the node permutations of t
    as_t = {}
    for elem in dual_lat.out_elements:
        perm = [0] * t.rank
        for i, target in enumerate(elem.node_permutation):
            perm[p[i]] = p[target]
        as_t[elem.name] = next(e for e in lat.out_elements if e.node_permutation == tuple(perm))
    facts = {f.name: f for f in oracles.forms(t.family, t.rank)}
    dual_facts = {f.name: f for f in oracles.forms(u.family, u.rank)}
    dual_forms = enumerate_forms(u)
    names = {}
    for gf in enumerate_forms(t):
        f = facts[gf.display_name]
        assert (f.pi1, f.chars, f.out_order) == (
            gf.pi1.invariant_factors, gf.chars.structure.invariant_factors, gf.out.order)
        perp = frozenset(to_dual[a] for a in gf.chars.elements)
        orbit = {frozenset(dual_lat.center_action.apply(e.name, x) for x in perp)
                 for e in dual_lat.out_elements}
        duals = [g for g in dual_forms if g.mu.elements in orbit]
        assert len(duals) == 1, (gf, duals)
        gd = duals[0]
        names[gf.display_name] = gd.display_name
        assert gd.pi1 == gf.chars.structure
        assert gd.chars.structure == gf.pi1
        assert gd.out.order == gf.out.order
        fd = dual_facts[gd.display_name]
        assert (fd.pi1, fd.chars) == (f.chars, f.pi1)
        mu_orbit = {frozenset(lat.center_action.apply(e.name, x) for x in gf.mu.elements)
                    for e in lat.out_elements}
        assert frozenset(from_dual[y] for y in gd.chars.elements) in mu_orbit
        # Out(G^vee) on pi_1(G^vee) and Out(G) on Hom(Z(G), G_m), each read
        # off its matrices on the basis, are contragredient to Out(G^sc) on
        # Z(G^sc)
        assert_contragredient(lat, [
            (as_t[e.name], back[b], back[image(gd.mu, gd.pi1_action, e.name, b)])
            for e in gd.out.elements for b in gd.mu.basis])
        assert_contragredient(lat, [
            (e, b, image(gf.chars, gf.chars_action, e.name, b))
            for e in gf.out.elements for b in gf.chars.basis])
    # the dual of the dual is the form itself
    if u == t:
        assert all(names[names[n]] == n for n in names)


@pytest.mark.parametrize("t", [t for t in TYPES if t.rank <= 24 and dual_type(t)[0] != t],
                         ids=str)
def test_dual_types_have_the_same_hitchin_numerology(t):
    u, _ = dual_type(t)
    assert weyl.invariant_degrees(u) == weyl.invariant_degrees(t)
    assert weyl.weyl_order(u) == weyl.weyl_order(t)
    assert weyl.orbit_counts(u) == weyl.orbit_counts(t)
