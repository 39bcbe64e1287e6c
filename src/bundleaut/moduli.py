"""Headline outputs: automorphism presentations, the classification table,
Hitchin-base numerology, and the local delta-invariant calculator.

The automorphism group of a moduli component is assembled as
H^1(C, Z(G)) x| (Out(G, delta) x Aut(C)): the torsion part comes from the
character group of the center raised to the 2g-th power, the outer part is
the stabilizer of the component label, and Aut(C) stays symbolic.

The genus enters only as the multiplicity 2g of each torsion block, which
the rendered presentation does not print, and through the Hitchin
numerology, which is linear in g.  So what is printed about the component
delta is built once per (form, delta), on first use (`component`: the
presentation rendered from Out(G, delta), the action descriptions and the
delta-class label).  dim G, the degrees and the orbit counts are read from
the per-type caches of `rootdata` and `weyl`, so a report at a new genus
does the arithmetic in g and the Riemann-Roch check, nothing else.

`component` is the one route to a presentation and a class label, for the
table and the report alike.  A table row is one of the form's
`delta_classes` (the component labels grouped by their stabilizers, as
`groupclass` builds them with the form), read from the components of its
labels.  `classification_table` and `hitchin_report` return the JSON
documents the command line prints, the table's rows and the report's
`hitchin` field, as dicts and lists of the caller's own.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import groupclass, weyl
from .finabel import AbelianAction, render_runs
from .groupclass import GroupForm, OutGroup, render_element
from .rootdata import DynkinType, _unit, admissible_types, build_root_datum, check

MIN_GENUS_PRESENTATION = 4
# the command line's ceiling, in digits, on a genus, on each number of a delta
# profile and on each part of a `--delta` label, checked before anything is
# built: every number computed from them has fewer than 640 digits, the least
# limit Python's int-to-str conversion takes
MAX_DIGITS = 600
SEMIDIRECT = "⋊"
TIMES = "×"
DELTA = "δ"
IN = "∈"
NEQ = "≠"


class GenusOutOfRange(ValueError):
    """Genus below the validity range of the requested output."""


class InconsistentProfile(ValueError):
    """A ramification entry violating parity or positivity."""


def render_presentation(torsion_factors, outer: OutGroup) -> str:
    torsion = render_runs(torsion_factors, "Pic(C)[{}]", f" {TIMES} ")
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
    m = action.actors[name]
    identity = tuple(_unit(k, i) for i in range(k))
    if m == identity:
        return "trivial"
    if all((a + b) % f == 0 for row, e, f in zip(m, identity, group.invariant_factors)
           for a, b in zip(row, e)):  # m = -1 modulo the factors
        return "dualization L -> L^{-1}"
    if all(m[i][j] in (0, 1) for i in range(k) for j in range(k)) and \
            all(sum(row) == 1 for row in m) and \
            all(sum(col) == 1 for col in zip(*m)):
        return "permutation of the torsion factors"
    rows = "; ".join(",".join(str(x) for x in row) for row in m)
    return f"matrix [{rows}]"


def _action_descriptions(gf: GroupForm, outer: OutGroup) -> dict[str, str]:
    """How Aut(C) and each element of Out(G, delta) other than the identity
    act on the torsion H^1(C, Z(G)); Aut(C) pulls back line bundles."""
    torsion = gf.chars.structure.invariant_factors
    out = {"Aut(C)": "pull-back" if torsion else "trivial"}
    for elem in outer.elements:
        if not elem.is_identity:
            out[elem.name] = _describe_action(gf.chars_action, elem.name)
    return out


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


class Component(namedtuple("Component", (
        "presentation",  # H^1(C, Z(G)) x| (Out(G, delta) x Aut(C)), rendered
        "actions",  # (acting element, its description) pairs
        "delta_class"))):  # the label of the delta class that holds delta
    """What the table and a report print about the component delta of a
    form; none of it depends on the genus."""

    __slots__ = ()


@lru_cache(maxsize=None)
def component(gf: GroupForm, delta: tuple[int, ...]) -> Component:
    """The component delta of gf, built on the first call for that pair.
    `out_stabilizer` validates delta, and a rejected one caches nothing."""
    outer = groupclass.out_stabilizer(gf, delta)
    cls = next(c for c in gf.delta_classes if delta in c)
    return Component(
        presentation=render_presentation(gf.chars.structure.invariant_factors, outer),
        actions=tuple(_action_descriptions(gf, outer).items()),
        delta_class=delta_class_label(gf, cls),
    )


def table_types(max_rank: int) -> list[DynkinType]:
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


def classification_table(genus: int, max_rank: int) -> list[dict]:
    """One row per (form, delta-class), in classification order, read from
    the `component` of each label in the class: the rows of `table --format
    json`, each a dict of the caller's own."""
    if genus < MIN_GENUS_PRESENTATION:
        raise GenusOutOfRange(
            f"the table requires genus >= {MIN_GENUS_PRESENTATION}, got {genus}")
    rows = []
    for t in table_types(max_rank):
        for gf in groupclass.enumerate_forms(t):
            for cls in gf.delta_classes:
                comps = [component(gf, d) for d in cls]
                check(len({c.presentation for c in comps}) == 1,
                      "presentation not constant on a class")
                rows.append({
                    "family": t.label,
                    "group": gf.display_name,
                    "delta_class": comps[0].delta_class,
                    "presentation": comps[0].presentation,
                    "delta_values": [list(d) for d in cls],
                })
    return rows


def riemann_roch_basis_dim(degrees, rank: int, genus: int) -> int:
    """sum_i h^0(omega^{d_i}) = sum d_i(2g-2) + r(1-g), no d_i being 1."""
    return sum(degrees) * (2 * genus - 2) + rank * (1 - genus)


def hitchin_report(gf: GroupForm, genus: int) -> dict:
    """The report's `hitchin` field, a dict of the caller's own: dim G =
    r + |Phi|, the degrees and the orbit counts m, n are read from the
    per-type caches of `rootdata` and `weyl`, and the rest is arithmetic in
    the genus, with the Riemann-Roch check."""
    if genus < 2:
        raise GenusOutOfRange(f"Hitchin numerology requires genus >= 2, got {genus}")
    t = gf.dynkin
    rd = build_root_datum(t)
    dim_group = rd.rank + len(rd.roots)
    m, n, _ = weyl.orbit_counts(t)
    degrees = weyl.invariant_degrees(t)
    dim_center = 0  # almost-simple throughout
    closed_form = dim_group * (genus - 1)
    via_rr = riemann_roch_basis_dim(degrees, t.rank, genus)
    check(via_rr == closed_form, "Riemann-Roch sum disagrees with dim G(g-1)")
    return {
        "group": gf.display_name,
        "genus": genus,
        "dim_group": dim_group,
        "dim_center": dim_center,
        "dim_basis": closed_form,
        "weights": list(degrees),
        "coxeter_number": degrees[-1],
        "fiber_dim": dim_group * (genus - 1),
        "higgs_stack_dim": 2 * dim_group * (genus - 1),
        "m_ab_components": m,
        "n_extra_components": n,
    }


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

