"""Headline outputs: automorphism presentations, the classification table,
Hitchin-base numerology, and the local delta-invariant calculator.

The automorphism group of a moduli component is assembled as
H^1(C, Z(G)) x| (Out(G, delta) x Aut(C)): the torsion part comes from the
character group of the center raised to the 2g-th power, the outer part is
the stabilizer of the component label, and Aut(C) stays symbolic.  Table
rows are the form's `delta_classes`: the component labels grouped by their
stabilizers, as `groupclass` builds them with the form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import groupclass, weyl
from .finabel import AbelianAction
from .groupclass import GroupForm, OutGroup, render_element
from .rootdata import DEFAULT_MAX_RANK, DynkinType, build_root_datum, admissible_types, check

MIN_GENUS_PRESENTATION = 4
SEMIDIRECT = "⋊"
TIMES = "×"
DELTA = "δ"
IN = "∈"
NEQ = "≠"


class GenusOutOfRange(ValueError):
    """Genus below the validity range of the requested output."""


class InconsistentProfile(ValueError):
    """A ramification entry violating parity or positivity."""


def _render_torsion(factors) -> str:
    parts = []
    for l, run in itertools.groupby(factors):
        k = len(list(run))
        parts.append(f"Pic(C)[{l}]" if k == 1 else f"(Pic(C)[{l}])^{k}")
    return f" {TIMES} ".join(parts)


def render_presentation(torsion_factors, outer: OutGroup) -> str:
    torsion = _render_torsion(torsion_factors)
    inner = "Aut(C)" if outer.is_trivial else f"{outer.symbol()} {TIMES} Aut(C)"
    if not torsion:
        return inner
    if outer.is_trivial:
        return f"{torsion} {SEMIDIRECT} Aut(C)"
    return f"{torsion} {SEMIDIRECT} ({inner})"


def _describe_action(action: AbelianAction, name: str) -> str:
    group = action.group
    if group.is_trivial:
        return "trivial"
    k = len(group.invariant_factors)
    m = action.matrix(name)
    identity = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    if m == identity:
        return "trivial"
    if all(m[i][j] % group.invariant_factors[i] ==
           (-1 if i == j else 0) % group.invariant_factors[i]
           for i in range(k) for j in range(k)):
        return "dualization L -> L^{-1}"
    if all(m[i][j] in (0, 1) for i in range(k) for j in range(k)) and \
            all(sum(row) == 1 for row in m) and \
            all(sum(col) == 1 for col in zip(*m)):
        return "permutation of the torsion factors"
    rows = "; ".join(",".join(str(x) for x in row) for row in m)
    return f"matrix [{rows}]"


@dataclass(frozen=True)
class AutPresentation:
    """H^1(C, Z(G)) x| (Out(G, delta) x Aut(C)) in structured form."""

    group: GroupForm
    genus: int
    delta: tuple[int, ...]
    torsion_blocks: tuple[tuple[int, int], ...]  # (l, multiplicity 2g)
    outer: OutGroup  # acts on Hom(Z(G), G_m) through group.chars_action

    def render(self) -> str:
        return render_presentation([l for l, _ in self.torsion_blocks], self.outer)

    def action_descriptions(self) -> dict[str, str]:
        out = {"Aut(C)": "pull-back" if self.torsion_blocks else "trivial"}
        for elem in self.outer.elements:
            if not elem.is_identity:
                out[elem.name] = _describe_action(self.group.chars_action, elem.name)
        return out


def aut_presentation(gf: GroupForm, delta, genus: int) -> AutPresentation:
    if genus < MIN_GENUS_PRESENTATION:
        raise GenusOutOfRange(
            f"the presentation holds for genus >= {MIN_GENUS_PRESENTATION}, got {genus}")
    delta = groupclass.validate_delta(gf, delta)
    return AutPresentation(
        group=gf,
        genus=genus,
        delta=delta,
        torsion_blocks=tuple((l, 2 * genus) for l in gf.chars.structure.invariant_factors),
        outer=groupclass.out_stabilizer(gf, delta),
    )


def delta_class_label(gf: GroupForm, cls: tuple) -> str:
    pi1 = gf.pi1
    sym = pi1.symbol()
    elems = set(cls)
    everything = set(pi1.elements())
    if pi1.is_trivial:
        return f"{DELTA} {IN} {{0}}"
    if elems == everything:
        return f"{DELTA} {IN} {sym}"
    if gf.dynkin.family == "A":
        two_torsion = {x for x in everything if pi1.add(x, x) == pi1.zero()}
        if elems == two_torsion:
            return f"2{DELTA} = 0 {IN} {sym}"
        if elems == everything - two_torsion:
            return f"2{DELTA} {NEQ} 0 {IN} {sym}"
    zero = pi1.zero()
    if elems == {zero}:
        return f"{DELTA} = {render_element(zero)} {IN} {sym}"
    if elems == everything - {zero}:
        return f"{DELTA} {NEQ} {render_element(zero)} {IN} {sym}"
    listing = ", ".join(render_element(x) for x in sorted(elems))
    return f"{DELTA} = {listing} {IN} {sym}"


@dataclass(frozen=True)
class TableRow:
    family: str
    group: str
    delta_class: str
    presentation: str
    delta_values: tuple[tuple[int, ...], ...]

    def as_dict(self) -> dict:
        return {**vars(self), "delta_values": [list(d) for d in self.delta_values]}


def table_types(max_rank: int = DEFAULT_MAX_RANK) -> list[DynkinType]:
    """Classification-table order: A, B, C, then D_4, even D, odd D, then
    the exceptional types."""
    types = admissible_types(max_rank)
    ds = sorted(t.rank for t in types if t.family == "D")
    d_order = [n for n in ds if n == 4] + [n for n in ds if n % 2 == 0 and n != 4] \
        + [n for n in ds if n % 2]
    ordered = [t for t in types if t.family in "ABC"]
    ordered += [DynkinType("D", n) for n in d_order]
    ordered += [t for t in types if t.family in "EFG"]
    return ordered


def classification_table(genus: int, max_rank: int = DEFAULT_MAX_RANK) -> list[TableRow]:
    """One row per (form, delta-class), in classification order."""
    if genus < MIN_GENUS_PRESENTATION:
        raise GenusOutOfRange(
            f"the table requires genus >= {MIN_GENUS_PRESENTATION}, got {genus}")
    rows = []
    for t in table_types(max_rank):
        for gf in groupclass.enumerate_forms(t):
            for cls in gf.delta_classes:
                rendered = {aut_presentation(gf, d, genus).render() for d in cls}
                check(len(rendered) == 1, "presentation not constant on a class")
                rows.append(TableRow(
                    family=t.label,
                    group=gf.display_name,
                    delta_class=delta_class_label(gf, cls),
                    presentation=rendered.pop(),
                    delta_values=cls,
                ))
    return rows


@dataclass(frozen=True)
class HitchinReport:
    group: str
    genus: int
    dim_group: int
    dim_center: int
    dim_basis: int
    weights: tuple[int, ...]
    coxeter_number: int
    fiber_dim: int
    higgs_stack_dim: int
    m_ab_components: int
    n_extra_components: int

    def as_dict(self) -> dict:
        return {**vars(self), "weights": list(self.weights)}


def riemann_roch_basis_dim(degrees, rank: int, genus: int) -> int:
    """sum_i h^0(omega^{d_i}) = sum d_i(2g-2) + r(1-g), no d_i being 1."""
    return sum(degrees) * (2 * genus - 2) + rank * (1 - genus)


def hitchin_report(gf: GroupForm, genus: int) -> HitchinReport:
    if genus < 2:
        raise GenusOutOfRange(f"Hitchin numerology requires genus >= 2, got {genus}")
    rd = build_root_datum(gf.dynkin)
    degrees = weyl.invariant_degrees(gf.dynkin)
    dim_group = rd.rank + len(rd.roots)
    dim_center = 0  # almost-simple throughout
    closed_form = dim_group * (genus - 1) + dim_center
    via_rr = riemann_roch_basis_dim(degrees, rd.rank, genus)
    check(via_rr == closed_form, "Riemann-Roch sum disagrees with dim G(g-1)")
    m, n = weyl.discriminant_orbit_counts(gf.dynkin)
    return HitchinReport(
        group=gf.display_name,
        genus=genus,
        dim_group=dim_group,
        dim_center=dim_center,
        dim_basis=closed_form,
        weights=degrees,
        coxeter_number=degrees[-1],
        fiber_dim=dim_group * (genus - 1),
        higgs_stack_dim=2 * dim_group * (genus - 1) + dim_center,
        m_ab_components=m,
        n_extra_components=n,
    )


def delta_local(point) -> int:
    """delta_p = (deg_p(a* D) - (dim t - dim t^{W_x})) / 2, checked integral."""
    deg, drop = point
    if deg < 0 or drop < 0:
        raise InconsistentProfile(f"negative entry in profile point {point}")
    if (deg - drop) % 2:
        raise InconsistentProfile(
            f"profile point {point}: deg - drop = {deg - drop} is odd")
    if deg < drop:
        raise InconsistentProfile(
            f"profile point {point}: deg - drop = {deg - drop} is negative")
    return (deg - drop) // 2


def delta_total(profile) -> int:
    """Sum of the local invariants; zero exactly on transversal profiles."""
    return sum(delta_local(p) for p in profile)
