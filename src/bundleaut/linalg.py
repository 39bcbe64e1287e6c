"""Empty: no part of the package forms or applies A^-1.

`groupclass.type_lattices` reads the pairing of P/Q with P^vee/Q^vee off
the Smith coordinates of the two quotients, where it is diagonal.  The
module stays only while the benchmark's layer list in `bench/layers.py`,
which imports every module it names, still lists it (ROADMAP items 2 and 6).
"""
