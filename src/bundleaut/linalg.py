"""Empty: the pairing of P/Q with P^vee/Q^vee no longer forms A^-1.

`groupclass.type_lattices` applies e A^-1 to its at most two generator lifts
with `finabel.scaled_solve`, from the Smith form it already has.  The module
stays only while the benchmark's layer list in `bench/layers.py`, which
imports every module it names, still lists it (ROADMAP items 2 and 6).
"""
