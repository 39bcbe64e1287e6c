"""Exact Lie-theory calculator for moduli of principal bundles.

Builds root data from integer Cartan matrices, computes centers,
fundamental groups and outer-automorphism actions of the almost-simple
isogeny classes, assembles the automorphism-group presentation of each moduli
component, and provides the Hitchin-base numerology (weights, dimension,
discriminant component counts, local delta invariants).
"""

from .rootdata import DynkinType, RootDatum, build_root_datum, root_hyperplanes
from .finabel import (
    AbelianAction,
    FiniteAbelianGroup,
    Subgroup,
    enumerate_subgroups,
    lattice_quotient,
    smith_normal_form,
    torsion_power,
)
from .weyl import (
    coxeter_element,
    invariant_degrees,
    longest_element,
    orbits_on_hyperplane_pairs,
    orbits_on_roots,
    weyl_order,
)
from .groupclass import (
    GroupForm,
    OutGroup,
    enumerate_forms,
    out_stabilizer,
)
from .moduli import (
    AutPresentation,
    HitchinReport,
    aut_presentation,
    classification_table,
    degree_identity_check,
    delta_local,
    delta_total,
    hitchin_report,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianAction",
    "AutPresentation",
    "DynkinType",
    "FiniteAbelianGroup",
    "GroupForm",
    "HitchinReport",
    "OutGroup",
    "RootDatum",
    "Subgroup",
    "aut_presentation",
    "build_root_datum",
    "classification_table",
    "coxeter_element",
    "degree_identity_check",
    "delta_local",
    "delta_total",
    "enumerate_forms",
    "enumerate_subgroups",
    "hitchin_report",
    "invariant_degrees",
    "lattice_quotient",
    "longest_element",
    "orbits_on_hyperplane_pairs",
    "orbits_on_roots",
    "out_stabilizer",
    "root_hyperplanes",
    "smith_normal_form",
    "torsion_power",
    "weyl_order",
]
