"""Exact Lie-theory calculator for moduli of principal bundles.

Builds root data from integer Cartan matrices, computes centers,
fundamental groups and outer-automorphism actions of the almost-simple
isogeny classes, assembles the automorphism-group presentation of each moduli
component, and provides the Hitchin-base numerology (weights, dimension,
discriminant component counts, local delta invariants).  The Weyl group
enters only through counts: its order, its invariant degrees and its orbit
counts on roots and root pairs.

The package re-exports nothing: callers import the submodules, such as
`bundleaut.cli`, whose `main(argv)` runs one command.
"""

__version__ = "0.1.0"
