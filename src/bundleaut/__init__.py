"""Exact Lie-theory calculator for moduli of principal bundles.

Builds root data from integer Cartan matrices, computes centers,
fundamental groups and outer-automorphism actions of the almost-simple
isogeny classes, assembles the automorphism-group presentation of each moduli
component, and provides the Hitchin-base numerology (weights, dimension,
discriminant component counts, local delta invariants).  The Weyl group
enters only through counts: its order, its invariant degrees and its orbit
counts on roots and root pairs.
"""

from .rootdata import DynkinType, RootDatum, build_root_datum
from .finabel import (
    AbelianAction,
    FiniteAbelianGroup,
    Subgroup,
    enumerate_subgroups,
    lattice_quotient,
    smith_normal_form,
)
from .weyl import (
    discriminant_orbit_counts,
    invariant_degrees,
    ordered_root_pair_orbit_count,
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
    "delta_local",
    "delta_total",
    "discriminant_orbit_counts",
    "enumerate_forms",
    "enumerate_subgroups",
    "hitchin_report",
    "invariant_degrees",
    "lattice_quotient",
    "ordered_root_pair_orbit_count",
    "out_stabilizer",
    "smith_normal_form",
    "weyl_order",
]
