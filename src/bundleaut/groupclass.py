"""Isogeny classes of almost-simple groups and their discrete invariants.

A group form is the quotient of the simply-connected group by a subgroup mu
of its center.  The center is identified with the coweight-side quotient
P^vee/Q^vee, its character group with P/Q; both are computed as lattice
quotients of the integer Cartan matrix A, never tabulated.  In
fundamental-weight coordinates Q is spanned by the columns of A, in
fundamental-coweight coordinates Q^vee by its rows, and one Smith form
U A V = S gives both quotients, each read from U A = S V^-1 (P/Q as the
rows of A^T, with the transposed triple, as `cli rootdata` reads it too),
and the perfect pairing between them: A^-1 = V S^-1 U, so a weight w and a
coweight z pair to sum_k x_k y_k / d_k, where x = U w and y = z V are
their classes in the Smith coordinates of the two quotients.  With
e = d_r, `pairings` holds e times it for the at most two generator lifts
on each side, once per type, and no inverse or solve is formed.
Out(G^sc), the node permutations preserving A, acts once per type on
each quotient (`chars_action`, `center_action`: the class of a permuted
generator lift) and is checked to preserve the pairing.
Every Out action downstream is its restriction: Out(G) is the stabilizer of
mu, acting on pi_1(G) = mu and on Hom(Z(G), G_m) = mu^perp.

One cache holds what depends on the Dynkin type: `enumerate_forms`, the
only constructor of `GroupForm`, whose records carry each form's
invariants, computed and cross-checked once per form from the type's
`type_lattices`, which it alone calls.  What depends only on the abstract
centre, the element sets of its subgroups and the coordinates and quotients
of those a form uses, comes from `finabel` as built, shared by the types
with the same centre (a whole group is already in its unit basis).
`_names` gives a form its display name and the spec tokens that select it
('sc', 'adjoint', 'so', 'semispin', 'mu<k>'), and `form_by_name` looks a
token up among the records.
pi_1(G) = mu is cross-checked by duality: the pairing is perfect, so
(P/Q)/mu^perp, with mu^perp found through the pairing, must have the
invariant factors of mu (`Subgroup.quotient`, one Smith form of at most two
columns per subgroup).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import permutations

from .finabel import (
    AbelianAction,
    FiniteAbelianGroup,
    LatticeQuotient,
    Subgroup,
    closure,
    enumerate_subgroups,
    smith_normal_form,
)
from .rootdata import DynkinType, _cycles, _unit, cartan_matrix, check


class InvalidDegree(ValueError):
    """A component label outside pi_1(G)."""


class OutElement(namedtuple("OutElement", "name node_permutation")):
    __slots__ = ()

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.node_permutation))

    def apply(self, coords) -> tuple[int, ...]:
        """alpha_i -> alpha_perm(i) sends omega_i to omega_perm(i) and
        omega_i^vee to omega_perm(i)^vee, so coordinate i moves to perm(i)."""
        image = [0] * len(coords)
        for target, c in zip(self.node_permutation, coords):
            image[target] = c
        return tuple(image)


_SYMBOLS = {1: "1", 2: "Z/2Z", 6: "S_3"}  # Out(G) by order


class OutGroup(namedtuple("OutGroup", "elements")):
    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def symbol(self) -> str:
        return _SYMBOLS[self.order]


def _make_out_group(elements) -> OutGroup:
    # the identity is the least node permutation, so it comes first
    elements = sorted(elements, key=lambda e: e.node_permutation)
    check(len(elements) in _SYMBOLS, lambda: f"unexpected outer group order {len(elements)}")
    return OutGroup(elements=tuple(elements))


def _cycle_name(perm: tuple[int, ...]) -> str:
    return "".join("(" + " ".join(str(i + 1) for i in cycle) + ")"
                   for cycle in _cycles(perm) if len(cycle) > 1) or "e"


def _distances(neighbours, source) -> list:
    """Each node's distance from `source` in the graph, breadth first; None
    for a node it does not reach."""
    distance = [None] * len(neighbours)
    distance[source] = 0
    order = [source]
    for i in order:
        for j in neighbours[i]:
            if distance[j] is None:
                distance[j] = distance[i] + 1
                order.append(j)
    return distance


def _cartan_automorphisms(cartan) -> list[tuple[int, ...]]:
    """The node permutations preserving the Cartan matrix, sorted.

    The Dynkin diagram is a tree with at most 3 leaves, and a node of a tree
    is told apart by its distances to the leaves.  An automorphism permutes
    the leaves and keeps distances, so each permutation of the leaves gives
    at most one candidate: each node goes to the node whose distance vector
    is its own, permuted.  A candidate defined on every node is injective,
    and it is kept if it has the same two Cartan entries on every edge: a
    bijection sending the r - 1 edges to edges keeps the whole matrix."""
    r = len(cartan)
    neighbours = [[j for j in range(r) if j != i and cartan[i][j]] for i in range(r)]
    check(None not in _distances(neighbours, 0), "the Dynkin diagram is not connected")
    # column k: each node's distance to leaf k; a node's vector is its row
    columns = [_distances(neighbours, i) for i in range(r) if len(neighbours[i]) <= 1]
    node = {vector: i for i, vector in enumerate(zip(*columns))}
    perms = []
    for permuted in permutations(columns):
        image = tuple(map(node.get, zip(*permuted)))
        if None not in image and all(cartan[image[i]][image[j]] == cartan[i][j]
                                     for i in range(r) for j in neighbours[i]):
            perms.append(image)
    return sorted(perms)


class TypeLattices(namedtuple("TypeLattices", (
        "cartan",
        "chars",  # P/Q  = Hom(Z(G^sc), G_m), weight coordinates
        "center",  # P^vee/Q^vee = Z(G^sc), coweight coordinates
        "exponent",  # e, the last invariant factor of A, so e A^-1 is integral
        "pairings",  # [a][b] = e <chars gen a, center gen b> mod e
        "out_elements",  # Out(G^sc), the Cartan automorphisms
        "chars_action",  # Out(G^sc) on P/Q
        "center_action"))):  # Out(G^sc) on P^vee/Q^vee
    """Weight- and coweight-side quotients for a simply-connected type."""

    __slots__ = ()


def _sc_action(quotient: LatticeQuotient, outs) -> AbelianAction:
    """Out(G^sc) on a (co)weight quotient: column j is the class of sigma(lift j)."""
    return AbelianAction(group=quotient.group, actors={
        elem.name: tuple(zip(*(quotient.project(elem.apply(g)) for g in quotient.generator_lifts)))
        for elem in outs})


def type_lattices(t: DynkinType) -> TypeLattices:
    cartan = cartan_matrix(t)
    # alpha_j = sum_i A[i][j] omega_i and alpha_i^vee = sum_j A[i][j] omega_j^vee,
    # so P/Q is Z^r mod the columns of A and P^vee/Q^vee mod its rows
    smith = smith_normal_form(cartan)
    chars = LatticeQuotient(cartan, smith, columns=True)
    center = LatticeQuotient(cartan, smith)
    n = t.rank
    lifts = None
    if t.family == "D":
        lifts = [_unit(n, n - 2), _unit(n, n - 1)] if n % 2 == 0 else [_unit(n, n - 1)]
    elif (t.family == "A" or (t.family == "E" and n == 6)) and not chars.group.is_trivial:
        lifts = [_unit(n, 0)]
    # <omega_i, omega_j^vee> = A^-1[j][i], so <w, z> = z^T A^-1 w, and
    # A^-1 = V S^-1 U makes it sum_k (U w)_k (z V)_k / d_k: diagonal in the
    # Smith coordinates that both quotients project to before `with_basis`
    smith_chars, smith_center = chars, center
    if lifts is not None:
        chars = chars.with_basis(lifts)
        center = center.with_basis(lifts)
    fs = smith_chars.group.invariant_factors
    e = fs[-1] if fs else 1
    xs = [smith_chars.project(w) for w in chars.generator_lifts]
    ys = [smith_center.project(z) for z in center.generator_lifts]
    pairings = tuple(tuple(sum(e // f * a * b for f, a, b in zip(fs, x, y)) % e for y in ys)
                     for x in xs)
    # the order of Out(G^sc) is checked before its actions are built from it
    outs = _make_out_group(OutElement(name=_cycle_name(perm), node_permutation=perm)
                           for perm in _cartan_automorphisms(cartan)).elements
    lat = TypeLattices(cartan=cartan, chars=chars, center=center, exponent=e,
                       pairings=pairings, out_elements=outs, chars_action=_sc_action(chars, outs),
                       center_action=_sc_action(center, outs))
    # the pairing is bilinear, so Out(G^sc) preserves it if it does on the
    # generators; sa[a] and sz[z], matrix columns, are the images of generators
    for name in lat.chars_action.actors:
        sa, sz = (list(zip(*act.actors[name])) for act in (lat.chars_action, lat.center_action))
        check(all(pairing(lat, sa[a], sz[z]) == p
                  for a, row in enumerate(pairings) for z, p in enumerate(row)),
              lambda: f"outer element {name} does not preserve the pairing")
    return lat


def pairing(lat: TypeLattices, char_coords, center_coords) -> int:
    """The perfect pairing (P/Q) x (P^vee/Q^vee) -> Q/Z, bilinear on the
    generators' pairings, as e times its value: an integer mod e."""
    value = sum(a * z * p
                for a, row in zip(char_coords, lat.pairings) if a
                for z, p in zip(center_coords, row) if z)
    return value % lat.exponent


def _so_subgroup(lat: TypeLattices) -> frozenset:
    # the elements of the kernel of the vector representation: the closure
    # of the class of omega_1^vee (eps_1 in the usual coordinates)
    omega1 = lat.center.project(_unit(len(lat.cartan), 0))
    return closure(lat.center.group, [omega1])


def _names(t: DynkinType, r: int, total: int, is_so: bool) -> tuple[str, frozenset[str]]:
    """The display name of G^sc/mu and the spec tokens that select it, from
    r = |mu|, the order `total` of the center and, in type D, whether mu is
    the kernel of the vector representation.  In type D an order-2 mu other
    than that kernel exists for even rank only, and triality folds these
    semispin classes of D_4 into SO_8, so SO_8 carries 'semispin' too."""
    n = t.rank
    tokens = set()
    if r == 1:
        tokens.add("sc")
    if r == total:
        tokens.add("adjoint")
    if t.family == "A":
        tokens.add(f"mu{r}")
    if is_so or (t.family == "B" and r == 2):
        tokens.add("so")
    if t.family == "D" and r == 2 and (n == 4 or not is_so):
        tokens.add("semispin")
    tokens = frozenset(tokens)
    if t.family == "A":
        m = n + 1
        if r == 1:
            return f"SL_{m}", tokens
        if r == m:
            return f"PSL_{m}", tokens
        return f"SL_{m}/mu_{r}", tokens
    if t.family == "B":
        return (f"Spin_{2 * n + 1}" if r == 1 else f"SO_{2 * n + 1}"), tokens
    if t.family == "C":
        return (f"Sp_{2 * n}" if r == 1 else f"PSp_{2 * n}"), tokens
    if t.family == "D":
        if r == 1:
            return f"Spin_{2 * n}", tokens
        if r == 4:
            return f"PSO_{2 * n}", tokens
        return (f"SO_{2 * n}" if is_so else f"SemiSpin_{2 * n}"), tokens
    if t.family == "E":
        if total == 1:
            return f"E{n}", tokens
        return (f"E{n}_sc" if r == 1 else f"E{n}_ad"), tokens
    return {"F": "F4", "G": "G2"}[t.family], tokens


def _annihilator(lat: TypeLattices, mu: Subgroup) -> Subgroup:
    """Hom(Z(G), G_m) as the annihilator of mu inside P/Q."""
    ann = [a for a in lat.chars.group.elements()
           if all(pairing(lat, a, g) == 0 for g in mu.basis)]
    return Subgroup.from_elements(lat.chars.group, ann)


def _out_action(out: OutGroup, sub: Subgroup, action: AbelianAction) -> AbelianAction:
    """Out(G) on a subgroup, restricting the type's `action` of Out(G^sc);
    column j of each matrix holds the coordinates of the image of basis element j."""
    actors = {}
    for elem in out.elements:
        cols = []
        for b in sub.basis:
            image = action.apply(elem.name, b)
            check(image in sub.elements,
                  lambda: f"outer element {elem.name} does not preserve the subgroup")
            cols.append(sub.to_coords(image))
        actors[elem.name] = tuple(zip(*cols))
    return AbelianAction(group=sub.structure, actors=actors)


def _delta_classes(pi1: FiniteAbelianGroup, action: AbelianAction) -> tuple[tuple, ...]:
    """Component labels grouped as in the classification table.

    Labels are partitioned into Out(G)-orbits; orbits whose stabilizer
    subgroups coincide (as sets of subgroups over the orbit) are printed as
    one row, since they produce identical presentations.  The actors are
    all of Out(G), so an orbit is the set of images of one label.
    """
    names = tuple(action.actors)

    def stab(x):
        return frozenset(n for n in names if action.apply(n, x) == x)

    by_stabs: dict[frozenset, list] = {}
    seen: set = set()
    for x in pi1.elements():
        if x not in seen:
            orbit = {action.apply(n, x) for n in names}
            seen |= orbit
            by_stabs.setdefault(frozenset(stab(y) for y in orbit), []).extend(orbit)
    return tuple(sorted(tuple(sorted(labels)) for labels in by_stabs.values()))


class GroupForm(namedtuple("GroupForm", (
        "dynkin",
        "mu",
        "display_name",
        "tokens",  # the spec tokens selecting it, see `_names`
        "chars",  # Hom(Z(G), G_m), the annihilator of mu in P/Q
        "pi1",  # pi_1(G), isomorphic to mu
        "out",  # Out(G), the elements of Out(G^sc) preserving mu
        "pi1_action",  # Out(G) on pi_1(G)
        "chars_action",  # Out(G) on Hom(Z(G), G_m)
        "delta_classes"))):
    """The group G = G^sc/mu and its invariants, built once by
    `enumerate_forms`.  Equality is that of the tuple of its fields, and the
    hash is that of its display name, which no two forms share: the caches
    keyed by a form (`moduli.component`, the `cli` ones) hash it on every
    lookup, and a str keeps its hash.  Its subgroups compare by identity, so
    a form rebuilt after a cache clear, or loaded from a pickle, hashes as
    its name does in that process but is not equal to the old one."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self.display_name)


def _make_form(t: DynkinType, mu: Subgroup, lat: TypeLattices, so: frozenset | None) -> GroupForm:
    """G^sc/mu with each invariant computed, and cross-checked, once; `so`
    is the element set of the SO subgroup of a type-D center, None otherwise."""
    display_name, tokens = _names(t, len(mu.elements), lat.center.group.order,
                                  mu.elements == so)
    chars = _annihilator(lat, mu)
    pi1 = mu.structure
    # the pairing is perfect, so (P/Q)/mu^perp = Hom(mu, Q/Z) is isomorphic to mu
    dual = chars.quotient
    check(pi1 == dual,
          lambda: f"pi_1({display_name}) = {pi1.symbol()} is not (P/Q)/Hom(Z(G), G_m) = "
          f"{dual.symbol()}, its dual")
    out = _make_out_group(
        elem for elem in lat.out_elements
        if {lat.center_action.apply(elem.name, x) for x in mu.elements} == mu.elements)
    pi1_action = _out_action(out, mu, lat.center_action)
    return GroupForm(
        dynkin=t, mu=mu, display_name=display_name, tokens=tokens,
        chars=chars, pi1=pi1, out=out, pi1_action=pi1_action,
        chars_action=_out_action(out, chars, lat.chars_action),
        delta_classes=_delta_classes(pi1, pi1_action))


@lru_cache(maxsize=None)
def enumerate_forms(t: DynkinType) -> tuple[GroupForm, ...]:
    """One GroupForm per isomorphism class of quotients of the sc group.

    Subgroups of the center are identified along the Out(G^sc)-action, in
    the order of `enumerate_subgroups`: an orbit comes at its first subgroup,
    which represents it.  All the subgroups of an orbit have one size, so
    the forms come by the size of mu.  For type D the representative of an
    orbit containing the vector-kernel subgroup is that subgroup, so the
    class is literally the SO form.
    """
    lat = type_lattices(t)
    center = lat.center.group
    so = _so_subgroup(lat) if t.family == "D" else None
    seen: set[frozenset] = set()
    forms = []
    for elements in enumerate_subgroups(center):
        if elements in seen:
            continue
        orbit = {frozenset(lat.center_action.apply(elem.name, x) for x in elements)
                 for elem in lat.out_elements}
        seen |= orbit
        mu = Subgroup.from_elements(center, so if so in orbit else elements)
        forms.append(_make_form(t, mu, lat, so))
    return tuple(forms)


def form_by_name(t: DynkinType, kind: str) -> GroupForm:
    """The form of type t that the spec token `kind` selects: 'sc',
    'adjoint', 'so', 'semispin' or 'mu<k>', as `_names` assigns them."""
    for gf in enumerate_forms(t):
        if kind in gf.tokens:
            return gf
    raise ValueError(f"no form {kind!r} of type {t.label}")


def render_element(x) -> str:
    """A label in pi_1 as printed: `0` in the trivial group, the coordinate
    in a cyclic one, `(a,b,...)` otherwise."""
    if not x:
        return "0"
    if len(x) == 1:
        return str(x[0])
    return "(" + ",".join(str(c) for c in x) + ")"


def validate_delta(gf: GroupForm, delta) -> tuple[int, ...]:
    delta = tuple(delta)
    if not gf.pi1.contains(delta):
        # render_element prints () as 0, the one label of a trivial pi_1; an
        # empty label rejected here is shown as it is
        label = render_element(delta) if delta else "()"
        raise InvalidDegree(
            f"delta {label} is not a label in pi_1({gf.display_name}) = {gf.pi1.symbol()}")
    return delta


def out_stabilizer(gf: GroupForm, delta) -> OutGroup:
    """Out(G, delta): the outer automorphisms fixing the component label."""
    delta = validate_delta(gf, delta)
    return _make_out_group(elem for elem in gf.out.elements
                           if gf.pi1_action.apply(elem.name, delta) == delta)
