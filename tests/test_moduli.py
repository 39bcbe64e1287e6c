"""Presentations, table rows, Hitchin numerology, the delta calculator."""

import random
import sys

import pytest

from bundleaut import cli, finabel
from bundleaut.groupclass import InvalidDegree, enumerate_forms, form_by_name, out_stabilizer
from bundleaut.moduli import (
    GenusOutOfRange,
    InconsistentProfile,
    _action_descriptions,
    classification_table,
    component,
    delta_class_label,
    delta_local,
    hitchin_report,
    render_presentation,
    riemann_roch_basis_dim,
    table_types,
)
from bundleaut.rootdata import DynkinType, admissible_types, build_root_datum
from bundleaut.weyl import invariant_degrees

from test_acceptance import delta_total


def by_name(tname, form):
    return form_by_name(DynkinType.parse(tname), form)


def reference_presentation(gf, delta):
    """The presentation of the component delta, rendered afresh from
    Out(G, delta), as `moduli.component` renders it once and caches it."""
    return render_presentation(gf.chars.structure.invariant_factors, out_stabilizer(gf, delta))


def reference_actions(gf, delta):
    return _action_descriptions(gf, out_stabilizer(gf, delta))


@pytest.mark.parametrize("tname,form,delta,expected", [
    ("D5", "sc", (), "Pic(C)[4] ⋊ (Z/2Z × Aut(C))"),
    ("D7", "sc", (), "Pic(C)[4] ⋊ (Z/2Z × Aut(C))"),
    ("E6", "adjoint", (1,), "Aut(C)"),
    ("E6", "adjoint", (0,), "Z/2Z × Aut(C)"),
    ("E8", "sc", (), "Aut(C)"),
    ("A1", "sc", (), "Pic(C)[2] ⋊ Aut(C)"),
    ("D4", "sc", (), "(Pic(C)[2])^2 ⋊ (S_3 × Aut(C))"),
    ("D4", "adjoint", (0, 0), "S_3 × Aut(C)"),
    ("D4", "adjoint", (1, 1), "Z/2Z × Aut(C)"),
    ("B3", "sc", (), "Pic(C)[2] ⋊ Aut(C)"),
    ("C3", "adjoint", (1,), "Aut(C)"),
])
def test_presentation_rendering(tname, form, delta, expected):
    gf = by_name(tname, form)
    assert reference_presentation(gf, delta) == expected
    assert component(gf, delta).presentation == expected


def test_presentation_requires_genus_four():
    # the genus bound is the table's and the report's; a component has no genus
    gf = by_name("A1", "sc")
    with pytest.raises(GenusOutOfRange):
        classification_table(genus=3, max_rank=8)
    assert cli.build_report(gf, (), 3).presentation is None
    with pytest.raises(InvalidDegree):
        out_stabilizer(by_name("E6", "adjoint"), (3,))
    with pytest.raises(InvalidDegree):
        component(by_name("E6", "adjoint"), (3,))


def test_torsion_group_and_blocks():
    # one torsion block Pic(C)[l] per invariant factor l of Hom(Z(G), G_m)
    assert by_name("D5", "sc").chars.structure.invariant_factors == (4,)
    assert by_name("E8", "sc").chars.structure.invariant_factors == ()
    assert component(by_name("D5", "sc"), ()).presentation.startswith("Pic(C)[4] ⋊ ")
    assert "Pic" not in component(by_name("E8", "sc"), ()).presentation


def test_torsion_part_independent_of_delta():
    gf = by_name("D6", "adjoint")
    torsion = {reference_presentation(gf, d).rpartition("⋊")[0]
               for d in [(0, 0), (1, 0), (0, 1), (1, 1)]}
    assert len(torsion) == 1
    assert out_stabilizer(gf, (0, 0)).symbol() == gf.out.symbol()


def test_spin_action_description():
    descriptions = reference_actions(by_name("D6", "sc"), ())
    swap = next(v for k, v in descriptions.items() if k not in ("e", "Aut(C)"))
    assert swap == "permutation of the torsion factors"
    dual = next(v for k, v in reference_actions(by_name("D5", "sc"), ()).items()
                if k not in ("e", "Aut(C)"))
    assert dual == "dualization L -> L^{-1}"


def test_delta_classes_match_table_grouping():
    gf = by_name("D6", "adjoint")
    assert gf.delta_classes == (((0, 0), (1, 1)), ((0, 1), (1, 0)))
    gf = by_name("D4", "adjoint")
    assert gf.delta_classes == (((0, 0),), ((0, 1), (1, 0), (1, 1)))
    gf = by_name("D5", "adjoint")
    assert gf.delta_classes == (((0,), (2,)), ((1,), (3,)))
    gf = by_name("A5", "adjoint")
    assert gf.delta_classes == (((0,), (3,)), ((1,), (2,), (4,), (5,)))
    gf = by_name("A1", "adjoint")
    assert gf.delta_classes == (((0,), (1,)),)


def test_delta_class_labels():
    gf = by_name("A5", "adjoint")
    classes = gf.delta_classes
    assert delta_class_label(gf, classes[0]) == "2δ = 0 ∈ Z/6Z"
    assert delta_class_label(gf, classes[1]) == "2δ ≠ 0 ∈ Z/6Z"
    gf = by_name("E6", "adjoint")
    classes = gf.delta_classes
    assert delta_class_label(gf, classes[0]) == "δ = 0 ∈ Z/3Z"
    assert delta_class_label(gf, classes[1]) == "δ ≠ 0 ∈ Z/3Z"
    gf = by_name("D5", "adjoint")
    classes = gf.delta_classes
    assert delta_class_label(gf, classes[0]) == "δ = 0, 2 ∈ Z/4Z"
    assert delta_class_label(gf, classes[1]) == "δ = 1, 3 ∈ Z/4Z"


def test_table_types_order_and_bounds():
    labels = [t.label for t in table_types(8)]
    assert labels[:7] == ["A_1", "A_2", "A_3", "A_4", "A_5", "A_6", "A_7"]
    d_part = [l for l in labels if l.startswith("D")]
    assert d_part == ["D_4", "D_6", "D_8", "D_5", "D_7"]
    assert labels[-5:] == ["E_6", "E_7", "E_8", "F_4", "G_2"]
    small = [t.label for t in table_types(2)]
    assert small == ["A_1", "B_2", "G_2"]


def test_classification_table_rows():
    rows = classification_table(genus=4, max_rank=4)
    index = {(r["group"], r["delta_class"]): r["presentation"] for r in rows}
    assert index[("SL_2", "δ ∈ {0}")] == "Pic(C)[2] ⋊ Aut(C)"
    assert index[("PSL_2", "δ ∈ Z/2Z")] == "Aut(C)"
    assert index[("PSO_8", "δ = (0,0) ∈ (Z/2Z)^2")] == "S_3 × Aut(C)"
    assert index[("PSO_8", "δ ≠ (0,0) ∈ (Z/2Z)^2")] == "Z/2Z × Aut(C)"
    assert index[("SO_8", "δ ∈ Z/2Z")] == "Pic(C)[2] ⋊ (Z/2Z × Aut(C))"
    assert index[("Spin_8", "δ ∈ {0}")] == "(Pic(C)[2])^2 ⋊ (S_3 × Aut(C))"


def test_table_requires_genus_four():
    with pytest.raises(GenusOutOfRange):
        classification_table(genus=3, max_rank=8)


def test_table_rank_bound_is_configurable():
    rows = classification_table(genus=4, max_rank=9)
    groups = {r["group"] for r in rows}
    assert "SL_9" in groups and "SL_9/mu_3" in groups and "Spin_19" in groups
    assert len(rows) > 83


def test_render_presentation_mixed_torsion():
    from bundleaut.moduli import render_presentation

    trivial_out = by_name("B2", "sc").out
    assert render_presentation((2, 2, 4), trivial_out) == \
        "(Pic(C)[2])^2 × Pic(C)[4] ⋊ Aut(C)"


def test_hitchin_report_examples():
    hr = hitchin_report(by_name("A1", "sc"), genus=4)
    assert hr["dim_basis"] == 9  # h^0(omega^2) = 3g - 3
    assert hr["weights"] == [2]
    assert hr["coxeter_number"] == 2
    assert hr["m_ab_components"] == 1
    assert hr["n_extra_components"] == 0

    hr = hitchin_report(by_name("G2", "sc"), genus=4)
    assert hr["dim_basis"] == 42
    assert hr["weights"] == [2, 6]
    assert hr["m_ab_components"] == 2

    hr = hitchin_report(by_name("E6", "sc"), genus=5)
    assert hr["m_ab_components"] == 1
    assert hr["dim_basis"] == 78 * 4
    assert hr["fiber_dim"] == 78 * 4
    assert hr["higgs_stack_dim"] == 2 * 78 * 4


def test_hitchin_report_requires_genus_two():
    with pytest.raises(GenusOutOfRange):
        hitchin_report(by_name("A1", "sc"), genus=1)


def test_dimension_cross_check_all_types():
    for t in admissible_types(8):
        rd = build_root_datum(t)
        degrees = invariant_degrees(t)
        dim_g = rd.rank + len(rd.roots)
        for g in range(2, 11):
            assert riemann_roch_basis_dim(degrees, rd.rank, g) == dim_g * (g - 1)


@pytest.mark.parametrize("point,expected", [
    ((0, 0), 0),    # unramified
    ((1, 1), 0),    # transversal
    ((4, 0), 2),    # m even: m/2
    ((3, 1), 1),    # m odd: (m-1)/2
])
def test_delta_local(point, expected):
    assert delta_local(point) == expected


def test_delta_local_m_family():
    for m in range(1, 13):
        if m % 2 == 0:
            assert delta_local((m, 0)) == m // 2
        else:
            assert delta_local((m, 1)) == (m - 1) // 2


@pytest.mark.parametrize("point", [(3, 0), (2, 1), (1, 2), (-1, 1), (1, -1)])
def test_delta_local_rejects_inconsistent(point):
    with pytest.raises(InconsistentProfile):
        delta_local(point)


def test_delta_total():
    # the empty profile is not a command line: `delta --profile ""` exits 1
    with pytest.raises(cli.UsageError, match="profile entry '' does not match"):
        cli.parse_profile("")
    assert delta_total([(1, 1)] * 12) == 0
    assert delta_total([(2, 0)] + [(1, 1)] * 5) == 1
    assert delta_total([(3, 1), (1, 1)]) == 1


def test_delta_total_additive_and_transversal_zero():
    rng = random.Random(42)
    for _ in range(1000):
        profile = []
        for _ in range(rng.randint(0, 6)):
            drop = rng.randint(0, 4)
            deg = drop + 2 * rng.randint(0, 5)
            profile.append((deg, drop))
        split = rng.randint(0, len(profile))
        left, right = profile[:split], profile[split:]
        assert delta_total(profile) == delta_total(left) + delta_total(right)
        assert (delta_total(profile) == 0) == all(d == s for d, s in profile)


@pytest.mark.parametrize("name,triple", [
    ("F4", (48, 4, 12)),
    ("A1", (2, 1, 2)),
    ("D5", (40, 5, 8)),
])
def test_degree_identity_check(name, triple):
    t = DynkinType.parse(name)
    rd = build_root_datum(t)
    assert (len(rd.roots), rd.rank, invariant_degrees(t)[-1]) == triple


def test_degree_identity_all_types():
    for t in admissible_types(8):
        rd = build_root_datum(t)
        assert len(rd.roots) == rd.rank * invariant_degrees(t)[-1]


def test_presentation_constant_on_classes():
    for t in admissible_types(5):
        for gf in enumerate_forms(t):
            for cls in gf.delta_classes:
                rendered = {reference_presentation(gf, d) for d in cls}
                assert len(rendered) == 1


def test_table_matches_the_reference_route_past_the_digest():
    # the digest and the golden table stop at rank 8; each row to rank 16
    # is checked against its presentations rendered afresh per delta, and
    # its class labelled by `delta_class_label`
    expected = []
    for t in table_types(16):
        for gf in enumerate_forms(t):
            for cls in gf.delta_classes:
                rendered = {reference_presentation(gf, d) for d in cls}
                assert len(rendered) == 1
                expected.append({"family": t.label, "group": gf.display_name,
                                 "delta_class": delta_class_label(gf, cls),
                                 "presentation": rendered.pop(),
                                 "delta_values": [list(d) for d in cls]})
    rows = classification_table(4, 16)
    assert len(rows) > len(classification_table(4, 8))
    assert rows == expected


def test_cold_table_builds_each_group_result_once(monkeypatch, fresh_caches):
    # counted, not timed: the 30 types of rank <= 8 have 9 distinct centres,
    # whose 25 subgroups are built once each, and 5 SO subgroups of type D;
    # a Smith form per type and two per proper subgroup, whose quotient is
    # read off the first of them, and none for the quotient by a whole group
    counts = {"Subgroup": 0, "smith_normal_form": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(finabel.Subgroup, "__init__",
                        counted("Subgroup", finabel.Subgroup.__init__))
    smith = finabel.smith_normal_form
    wrapper = counted("smith_normal_form", smith)
    for name, module in list(sys.modules.items()):
        if name == "bundleaut" or name.startswith("bundleaut."):
            for attr, value in list(vars(module).items()):
                if value is smith:
                    monkeypatch.setattr(module, attr, wrapper)
    classification_table(4, 8)
    assert counts["Subgroup"] <= 30
    assert counts["smith_normal_form"] <= 72
    assert finabel.enumerate_subgroups.cache_info().misses == 9
