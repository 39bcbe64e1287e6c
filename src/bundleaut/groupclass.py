"""Isogeny classes of almost-simple groups and their discrete invariants.

A group form is the quotient of the simply-connected group by a subgroup mu
of its center.  The center is identified with the coweight-side quotient
P^vee/Q^vee, its character group with P/Q; both are computed as lattice
quotients of the integer Cartan matrix, never tabulated.  In
fundamental-weight coordinates Q is spanned by the columns of A, in
fundamental-coweight coordinates Q^vee by its rows, and the perfect pairing
between the two quotients is read off A^-1.  Outer automorphisms are the
Cartan-matrix-preserving node permutations, which permute the weight and
coweight coordinates directly, and everything downstream (Out(G), actions
on pi_1 and on the character group, stabilizers of a component label) is
derived from those permutations acting on lattice classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .finabel import (
    AbelianAction,
    FiniteAbelianGroup,
    LatticeQuotient,
    Subgroup,
    lattice_quotient,
)
from .rootdata import DynkinType, RootDatum, _unit, build_root_datum, check


class InvalidDegree(ValueError):
    """A component label outside pi_1(G)."""


@dataclass(frozen=True)
class OutElement:
    name: str
    node_permutation: tuple[int, ...]

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


_KINDS = {1: "Trivial", 2: "Z2", 6: "S3"}
_SYMBOLS = {"Trivial": "1", "Z2": "Z/2Z", "S3": "S_3"}


@dataclass(frozen=True)
class OutGroup:
    kind: str
    elements: tuple[OutElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return self.kind == "Trivial"

    def symbol(self) -> str:
        return _SYMBOLS[self.kind]


def _make_out_group(elements) -> OutGroup:
    elements = sorted(elements, key=lambda e: (not e.is_identity, e.node_permutation))
    kind = _KINDS.get(len(elements))
    check(kind is not None, f"unexpected outer group order {len(elements)}")
    return OutGroup(kind=kind, elements=tuple(elements))


@dataclass(frozen=True)
class GroupForm:
    dynkin: DynkinType
    mu: Subgroup
    display_name: str

    def __str__(self) -> str:
        return self.display_name


def _cycle_name(perm: tuple[int, ...]) -> str:
    seen = set()
    cycles = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        cycles.append("(" + " ".join(str(i + 1) for i in cycle) + ")")
    return "".join(cycles) if cycles else "e"


def _cartan_automorphisms(cartan) -> list[tuple[int, ...]]:
    r = len(cartan)
    perms: list[tuple[int, ...]] = []

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


@dataclass(frozen=True)
class TypeLattices:
    """Weight- and coweight-side quotients for a simply-connected type."""

    rd: RootDatum
    chars: LatticeQuotient  # P/Q  = Hom(Z(G^sc), G_m), weight coordinates
    center: LatticeQuotient  # P^vee/Q^vee = Z(G^sc), coweight coordinates
    inverse_cartan: tuple[tuple[Fraction, ...], ...]  # [j][i] = <omega_i, omega_j^vee>


@lru_cache(maxsize=None)
def type_lattices(t: DynkinType) -> TypeLattices:
    rd = build_root_datum(t)
    # alpha_j = sum_i A[i][j] omega_i and alpha_i^vee = sum_j A[i][j] omega_j^vee
    chars = lattice_quotient(list(zip(*rd.cartan)))
    center = lattice_quotient(rd.cartan)
    n = t.rank
    lifts = None
    if t.family == "D":
        lifts = [_unit(n, n - 2), _unit(n, n - 1)] if n % 2 == 0 else [_unit(n, n - 1)]
    elif (t.family == "A" or (t.family == "E" and n == 6)) and not chars.group.is_trivial:
        lifts = [_unit(n, 0)]
    if lifts is not None:
        chars = chars.with_basis(lifts)
        center = center.with_basis(lifts)
    return TypeLattices(rd=rd, chars=chars, center=center,
                        inverse_cartan=linalg.invert(rd.cartan))


@lru_cache(maxsize=None)
def _sc_out_elements(t: DynkinType) -> tuple[OutElement, ...]:
    rd = build_root_datum(t)
    elements = []
    for perm in _cartan_automorphisms(rd.cartan):
        elements.append(OutElement(name=_cycle_name(perm), node_permutation=perm))
    return tuple(elements)


def pairing(lat: TypeLattices, char_coords, center_coords):
    """The perfect pairing (P/Q) x (P^vee/Q^vee) -> Q/Z."""
    weight = lat.chars.lift(char_coords)
    coweight = lat.center.lift(center_coords)
    inv = lat.inverse_cartan
    value = sum(c * d * inv[j][i]
                for i, c in enumerate(weight) if c
                for j, d in enumerate(coweight) if d)
    return value % 1


def _full_subgroup(group: FiniteAbelianGroup) -> Subgroup:
    units = [tuple(1 if j == i else 0 for j in range(len(group.invariant_factors)))
             for i in range(len(group.invariant_factors))]
    return Subgroup(group, units, basis=units)


def _center_image(lat: TypeLattices, elem: OutElement, coords):
    return lat.center.project(elem.apply(lat.center.lift(coords)))


def _chars_image(lat: TypeLattices, elem: OutElement, coords):
    return lat.chars.project(elem.apply(lat.chars.lift(coords)))


def _so_subgroup(lat: TypeLattices) -> Subgroup:
    # kernel of the vector representation: generated by the class of
    # omega_1^vee (eps_1 in the usual coordinates)
    omega1 = _unit(lat.rd.rank, 0)
    return Subgroup(lat.center.group, [lat.center.project(omega1)])


def _display_name(t: DynkinType, mu: Subgroup, lat: TypeLattices) -> str:
    n = t.rank
    r = len(mu.elements)
    if t.family == "A":
        m = n + 1
        if r == 1:
            return f"SL_{m}"
        if r == m:
            return f"PSL_{m}"
        return f"SL_{m}/mu_{r}"
    if t.family == "B":
        return f"Spin_{2 * n + 1}" if r == 1 else f"SO_{2 * n + 1}"
    if t.family == "C":
        return f"Sp_{2 * n}" if r == 1 else f"PSp_{2 * n}"
    if t.family == "D":
        if r == 1:
            return f"Spin_{2 * n}"
        if r == 4:
            return f"PSO_{2 * n}"
        return f"SO_{2 * n}" if mu == _so_subgroup(lat) else f"SemiSpin_{2 * n}"
    if t.family == "E":
        if lat.center.group.is_trivial:
            return f"E{n}"
        return f"E{n}_sc" if r == 1 else f"E{n}_ad"
    return {"F": "F4", "G": "G2"}[t.family]


def _make_form(t: DynkinType, mu: Subgroup) -> GroupForm:
    lat = type_lattices(t)
    if mu.elements == frozenset(mu.ambient.elements()):
        mu = _full_subgroup(mu.ambient)
    return GroupForm(dynkin=t, mu=mu, display_name=_display_name(t, mu, lat))


@lru_cache(maxsize=None)
def enumerate_forms(t: DynkinType) -> tuple[GroupForm, ...]:
    """One GroupForm per isomorphism class of quotients of the sc group.

    Subgroups of the center are identified along the Out(G^sc)-action; for
    type D the representative of an orbit containing the vector-kernel
    subgroup is that subgroup, so the class is literally the SO form.
    """
    from .finabel import enumerate_subgroups

    lat = type_lattices(t)
    subgroups = enumerate_subgroups(lat.center.group)
    outs = _sc_out_elements(t)
    remaining = {sub.canonical_key(): sub for sub in subgroups}
    classes = []
    while remaining:
        key = min(remaining)
        sub = remaining.pop(key)
        orbit = [sub]
        for elem in outs:
            image = frozenset(_center_image(lat, elem, x) for x in sub.elements)
            ikey = (len(image), tuple(sorted(image)))
            if ikey in remaining:
                orbit.append(remaining.pop(ikey))
        rep = sub
        if t.family == "D":
            so = _so_subgroup(lat)
            if any(member == so for member in orbit):
                rep = so
        classes.append(rep)
    classes.sort(key=lambda s: s.canonical_key())
    return tuple(_make_form(t, rep) for rep in classes)


def form_by_name(t: DynkinType, kind: str) -> GroupForm:
    """Select a form of the given type: 'sc', 'adjoint', 'so', 'semispin',
    or 'mu<k>' (type A)."""
    forms = enumerate_forms(t)
    lat = type_lattices(t)
    total = lat.center.group.order
    if kind == "sc":
        return forms[0]
    if kind == "adjoint":
        return next(f for f in forms if len(f.mu.elements) == total)
    if kind == "so":
        if t.family == "B":
            return form_by_name(t, "adjoint")
        if t.family != "D":
            raise ValueError(f"no SO form for type {t}")
        return next(f for f in forms if f.display_name.startswith("SO_"))
    if kind == "semispin":
        if t.family != "D" or t.rank % 2:
            raise ValueError(f"no SemiSpin form for type {t}")
        if t.rank == 4:
            # the triality identification folds the semispin classes into SO_8
            return form_by_name(t, "so")
        return next(f for f in forms if f.display_name.startswith("SemiSpin"))
    if kind.startswith("mu"):
        if t.family != "A":
            raise ValueError("mu<k> forms only name type-A quotients")
        r = int(kind[2:])
        match = [f for f in forms if len(f.mu.elements) == r]
        if not match:
            raise ValueError(f"no subgroup of order {r} in the center of {t}")
        return match[0]
    raise ValueError(f"unknown form {kind!r}")


@lru_cache(maxsize=None)
def center_char_subgroup(gf: GroupForm) -> Subgroup:
    """Hom(Z(G), G_m) as the annihilator of mu inside P/Q."""
    lat = type_lattices(gf.dynkin)
    ann = [a for a in lat.chars.group.elements()
           if all(pairing(lat, a, g) == 0 for g in gf.mu.generators)]
    sub = Subgroup.from_elements(lat.chars.group, ann)
    if sub.elements == frozenset(lat.chars.group.elements()):
        sub = _full_subgroup(lat.chars.group)
    return sub


def center_char_group(gf: GroupForm) -> FiniteAbelianGroup:
    return center_char_subgroup(gf).structure


@lru_cache(maxsize=None)
def fundamental_group(gf: GroupForm) -> FiniteAbelianGroup:
    """pi_1(G) = mu, cross-checked against the coweight-lattice quotient
    X_*(T_G)/<coroots>."""
    direct = gf.mu.structure
    via_lattice = _pi1_lattice_quotient(gf)
    check(direct.invariant_factors == via_lattice.invariant_factors,
          "pi_1 from mu disagrees with the coweight-lattice quotient")
    return direct


def _pi1_lattice_quotient(gf: GroupForm) -> FiniteAbelianGroup:
    """X_*(T_G)/Q^vee in coweight coordinates, where the coroots are the rows
    of the Cartan matrix and X_* is spanned by them and lifts of mu."""
    from .finabel import _lattice_coords, _row_lattice_basis

    lat = type_lattices(gf.dynkin)
    coroots = lat.rd.cartan
    rows = [list(c) for c in coroots] + [list(lat.center.lift(g)) for g in gf.mu.generators]
    _, diag, v = _row_lattice_basis(rows, len(coroots))
    return lattice_quotient([_lattice_coords(c, diag, v) for c in coroots]).group


@lru_cache(maxsize=None)
def out_group(gf: GroupForm) -> OutGroup:
    """Out(G): the diagram automorphisms of the sc group preserving mu."""
    lat = type_lattices(gf.dynkin)
    kept = []
    for elem in _sc_out_elements(gf.dynkin):
        image = {_center_image(lat, elem, x) for x in gf.mu.elements}
        if image == set(gf.mu.elements):
            kept.append(elem)
    return _make_out_group(kept)


def _pi1_matrix(gf: GroupForm, elem: OutElement):
    lat = type_lattices(gf.dynkin)
    mu = gf.mu
    k = len(mu.structure.invariant_factors)
    cols = []
    for b in mu.basis:
        image = _center_image(lat, elem, b)
        check(image in mu.elements, "outer element does not preserve mu")
        cols.append(mu.to_coords(image))
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


@lru_cache(maxsize=None)
def out_action_on_pi1(gf: GroupForm) -> AbelianAction:
    actors = tuple(
        (elem.name, _pi1_matrix(gf, elem)) for elem in out_group(gf).elements
    )
    return AbelianAction(group=fundamental_group(gf), actors=actors)


@lru_cache(maxsize=None)
def out_action_on_center_chars(gf: GroupForm) -> AbelianAction:
    """The Out(G)-action on Hom(Z(G), G_m), i.e. on the annihilator of mu."""
    lat = type_lattices(gf.dynkin)
    ann = center_char_subgroup(gf)
    k = len(ann.structure.invariant_factors)
    actors = []
    for elem in out_group(gf).elements:
        cols = []
        for b in ann.basis:
            image = _chars_image(lat, elem, b)
            check(image in ann.elements, "action does not preserve the annihilator")
            cols.append(ann.to_coords(image))
        m = tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))
        actors.append((elem.name, m))
    return AbelianAction(group=ann.structure, actors=tuple(actors))


def validate_delta(gf: GroupForm, delta) -> tuple[int, ...]:
    pi1 = fundamental_group(gf)
    delta = tuple(delta)
    if len(delta) != len(pi1.invariant_factors) or not pi1.contains(delta):
        raise InvalidDegree(
            f"delta {delta} is not a label in pi_1({gf.display_name}) = {pi1.symbol()}")
    return delta


def out_stabilizer(gf: GroupForm, delta) -> OutGroup:
    """Out(G, delta): the outer automorphisms fixing the component label."""
    delta = validate_delta(gf, delta)
    action = out_action_on_pi1(gf)
    kept = [elem for elem in out_group(gf).elements
            if action.apply(elem.name, delta) == delta]
    return _make_out_group(kept)
