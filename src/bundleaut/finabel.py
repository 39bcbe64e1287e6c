"""Exact integer-lattice arithmetic and finite abelian groups.

Smith normal form U M V = S over Z by elementary row/column reduction,
quotients of Z^r by the row or the column lattice of an integer relation
matrix (both from one Smith form, read one way from U R = S V^-1, the column
quotient as the row quotient of R^T) and of one row lattice by another
(`sublattice_quotient`, from the Smith form its caller took), with
invariant factors and projection maps to the Smith coordinates, finite
abelian groups in invariant-factor form, subgroup enumeration, the
quotient of a group by a subgroup, and named automorphism actions
(`AbelianAction.actors`, a matrix per name).

This module alone decides the coordinates of a finite abelian group and its
subgroups: a quotient is one integer matrix of unit-vector classes, a whole
group is its own subgroup in the ambient unit basis, a proper subgroup takes
the Smith basis of its lattice quotient, and one span table (`_coordinates`)
turns any such basis into coordinates.  Matrices are plain lists of lists
of Python ints; there is no size limit beyond practicality.

What depends only on an abstract group is built once per group and shared
by every caller, whichever Dynkin type it serves: the element sets of the
subgroups of a `FiniteAbelianGroup` (`enumerate_subgroups`), and the
`Subgroup` of an ambient group and element set, its one constructor, with
its coordinates and its quotient field (`Subgroup.from_elements`, built
only for a set a caller asks for).  A shared result ran its checks when it
was built.  `render_runs` writes invariant factors, each run of equal ones
once, for `FiniteAbelianGroup.symbol` and `moduli`'s Picard blocks.

Every broken invariant, such as a relation matrix of lower rank, a vector
outside its lattice or an element set that is no subgroup, fails a
`rootdata.check`: the lattices here come from the Cartan matrix, so a
failure is the program's fault, and the CLI exits 3 with its message.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from math import prod

from .rootdata import _unit, check

IntMatrix = list[list[int]]


def smith_normal_form(m) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (S, U, V) with U*M*V = S, S diagonal, d_i | d_{i+1}.

    U and V are unimodular.  A reader that needs rows of V^-1 takes them
    from U*M = S*V^-1: row k of U*M is d_k times row k of V^-1.  Pivots are
    chosen as the minimal nonzero absolute value (first in scan order on
    ties), which makes the output deterministic for a fixed input.  An
    entry of absolute value 1 is such a pivot, so the scan stops at the
    first one, and a unit pivot divides everything, so it skips the
    divisibility scan.  Each pass of a step shrinks the pivot's size, which
    may stay equal once, after a row fold; a pass that does not fails a check.
    """
    s = [list(row) for row in m]
    nrows = len(s)
    ncols = len(s[0]) if nrows else 0
    # the identity matrices, as lists that the row and column operations edit
    u = [list(_unit(nrows, i)) for i in range(nrows)]
    v = [list(_unit(ncols, i)) for i in range(ncols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        s[i] = [a - q * b for a, b in zip(s[i], s[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in s:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    for t in range(min(nrows, ncols)):
        bound = None
        while True:
            pivot = None
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    val = abs(s[i][j])
                    if val and (best is None or val < best):
                        best, pivot = val, (i, j)
                        if val == 1:  # no smaller nonzero entry: stop scanning
                            break
                if best == 1:
                    break
            if pivot is None:
                break
            check(bound is None or best < bound,
                  lambda: f"step {t + 1} of a Smith form does not shrink its pivot {best}")
            bound = best
            if pivot != (t, t):
                if pivot[0] != t:
                    swap_rows(t, pivot[0])
                if pivot[1] != t:
                    swap_cols(t, pivot[1])
            dirty = False
            for i in range(t + 1, nrows):
                if s[i][t]:
                    row_op(i, t, s[i][t] // s[t][t])
                    dirty = dirty or s[i][t] != 0
            for j in range(t + 1, ncols):
                if s[t][j]:
                    col_op(j, t, s[t][j] // s[t][t])
                    dirty = dirty or s[t][j] != 0
            if dirty:
                continue
            if best == 1:  # a unit divides every entry
                break
            # divisibility: fold in a row whose entries the pivot misses
            culprit = next(
                (i for i in range(t + 1, nrows)
                 for j in range(t + 1, ncols) if s[i][j] % s[t][t]),
                None,
            )
            if culprit is None:
                break
            s[t] = [a + b for a, b in zip(s[t], s[culprit])]
            u[t] = [a + b for a, b in zip(u[t], u[culprit])]
            bound += 1
        if s[t][t] < 0:
            s[t] = [-a for a in s[t]]
            u[t] = [-a for a in u[t]]
    return s, u, v


class FiniteAbelianGroup(namedtuple("FiniteAbelianGroup", "invariant_factors")):
    """Z/l_1 x ... x Z/l_k with l_1 | l_2 | ... | l_k, every l_i >= 2.

    The empty tuple is the trivial group.  Elements are int tuples with
    coordinate i taken modulo l_i.
    """

    __slots__ = ()

    def __new__(cls, invariant_factors: tuple[int, ...]):
        fs = invariant_factors
        check(all(f >= 2 for f in fs), "invariant factors must be >= 2")
        check(not any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)),
              "invariant factors must form a divisibility chain")
        return super().__new__(cls, fs)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.invariant_factors)

    def elements(self):
        return itertools.product(*(range(f) for f in self.invariant_factors))

    def reduce(self, x) -> tuple[int, ...]:
        return tuple(a % f for a, f in zip(x, self.invariant_factors))

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % f for a, b, f in zip(x, y, self.invariant_factors))

    def contains(self, x) -> bool:
        return len(x) == len(self.invariant_factors) and all(
            0 <= a < f for a, f in zip(x, self.invariant_factors))

    def symbol(self) -> str:
        return render_runs(self.invariant_factors, "Z/{}Z", " x ") or "{0}"


def render_runs(factors, template: str, sep: str) -> str:
    """The factors, each written as `template` formats it, joined by `sep`:
    a run of k equal factors is written once, as `(...)^k`.  Empty for no
    factors."""
    return sep.join(text if k == 1 else f"({text})^{k}"
                    for text, k in ((template.format(f), len(list(run)))
                                    for f, run in itertools.groupby(factors)))


def closure(group: FiniteAbelianGroup, generators) -> frozenset:
    """The subgroup generated by the given elements."""
    elems = {group.zero()}
    frontier = [group.reduce(g) for g in generators]
    elems.update(frontier)
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = group.add(x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(elems)


def _combination(group: FiniteAbelianGroup, coeffs, vectors) -> tuple[int, ...]:
    """sum c_i * vectors_i, reduced in the group."""
    return group.reduce([sum(c * v[j] for c, v in zip(coeffs, vectors))
                         for j in range(len(group.invariant_factors))])


def _coordinates(group: FiniteAbelianGroup, basis, factors) -> dict:
    """{sum c_i * basis_i: c} for c in the box of the given factors."""
    return {_combination(group, c, basis): c
            for c in itertools.product(*(range(f) for f in factors))}


class Subgroup:
    """A subgroup of a FiniteAbelianGroup, from its element set, with
    explicit coordinates.

    `structure` is the subgroup's own invariant-factor form and `basis`
    realizes the decomposition inside the ambient group:  every element is
    sum(c_i * basis_i) with c the `to_coords` image.  The whole group is
    its own structure in the ambient unit basis, so its coordinates are the
    ambient ones; a proper subgroup takes the Smith basis of
    <elements, torsion> / torsion from `sublattice_quotient`, one Smith
    form of the sorted elements and the torsion rows, and the `quotient`
    ambient / self from the diagonal of the same Smith form (the trivial
    group for the whole group).  Those coordinates list the subgroup that
    the elements generate, so a set that is no subgroup fails the check
    that they list the set.  `from_elements` shares one instance per
    ambient group and element set, so nothing may change a subgroup once
    it is built.
    """

    def __init__(self, ambient: FiniteAbelianGroup, elements):
        self.ambient = ambient
        self.elements = frozenset(elements)
        d = ambient.invariant_factors
        r = len(d)
        if len(self.elements) == ambient.order:
            self.structure = ambient
            self.basis = tuple(_unit(r, i) for i in range(r))
            self.quotient = FiniteAbelianGroup(())
        else:
            # diag(d), the relations of the ambient group on Z^r
            torsion = [[f * x for x in _unit(r, i)] for i, f in enumerate(d)]
            rows = [list(x) for x in sorted(self.elements)] + torsion
            smith = smith_normal_form(rows)
            quotient, lattice = sublattice_quotient(rows, torsion, smith)
            self.structure = quotient.group
            self.basis = tuple(_combination(ambient, lift, lattice)
                               for lift in quotient.generator_lifts)
            # ambient/self = Z^r / <elements, torsion>, whose invariant
            # factors are the diagonal of that Smith form
            self.quotient = FiniteAbelianGroup(
                tuple(smith[0][k][k] for k in range(r) if smith[0][k][k] > 1))
        self._coords = _coordinates(ambient, self.basis, self.structure.invariant_factors)
        check(len(self._coords) == self.structure.order and self._coords.keys() == self.elements,
              "subgroup coordinates do not match its elements")

    @classmethod
    def from_elements(cls, ambient: FiniteAbelianGroup, elements) -> "Subgroup":
        """The subgroup with the given elements, one shared instance per
        ambient group and element set."""
        return _shared_subgroup(ambient, frozenset(ambient.reduce(e) for e in elements))

    def to_coords(self, element) -> tuple[int, ...]:
        return self._coords[self.ambient.reduce(element)]


@lru_cache(maxsize=None)
def _shared_subgroup(ambient: FiniteAbelianGroup, elements: frozenset) -> Subgroup:
    """The cache behind `Subgroup.from_elements`."""
    return Subgroup(ambient, elements)


@lru_cache(maxsize=None)
def enumerate_subgroups(g: FiniteAbelianGroup) -> tuple[frozenset, ...]:
    """The element set of every subgroup exactly once, ordered by size then
    sorted element list, found once per group; `Subgroup.from_elements`
    gives one its coordinates.

    With k invariant factors every subgroup is generated by k elements, so
    the subgroups are the closures of the k-element multisets."""
    k = len(g.invariant_factors)
    found = {closure(g, gens)
             for gens in itertools.combinations_with_replacement(g.elements(), k)}
    return tuple(sorted(found, key=lambda e: (len(e), tuple(sorted(e)))))


class LatticeQuotient:
    """Z^r modulo the row lattice of an r x r integer relation matrix R, or
    with `columns` modulo its column lattice.

    The quotient is one integer matrix: row i holds the class of the unit
    vector e_i in invariant-factor coordinates, and `project` applies it
    modulo the invariant factors.  With U R V = S in Smith normal form, row
    i is row i of V at the columns k where d_k > 1, and `generator_lifts` are
    the matching rows of V^-1, which project to the unit classes; they are
    read from U R = S V^-1 as row k of U R divided by d_k.  The column
    quotient is the row quotient of R^T, whose Smith form is the transposed
    triple (S, V^T, U^T), read the same way.  A caller holding the Smith
    form of R passes it as `smith`, so both quotients of R cost one.
    `with_basis` re-coordinatizes the matrix on the classes of other lifts.
    """

    def __init__(self, relations, smith=None, columns=False):
        rel = [list(row) for row in relations]
        r = len(rel)
        check(all(len(row) == r for row in rel),
              "need one relation row of length r per coordinate of Z^r")
        check(all(isinstance(x, int) for row in rel for x in row),
              "relations must be integer vectors")
        s, u, v = smith or smith_normal_form(rel)
        if columns:  # V^T R^T U^T = S
            rel, u, v = list(zip(*rel)), list(zip(*v)), list(zip(*u))
        full = [s[i][i] for i in range(r)]
        check(all(full), "relations do not span a full-rank lattice")
        positions = [i for i, f in enumerate(full) if f > 1]
        self.rank = r
        self.group = FiniteAbelianGroup(tuple(full[i] for i in positions))
        self.generator_lifts = tuple(
            tuple(sum(a * b for a, b in zip(u[k], col)) // full[k] for col in zip(*rel))
            for k in positions)
        classes = [[row[k] for k in positions] for row in v]
        self._matrix = tuple(self.group.reduce(c) for c in classes)

    def project(self, x) -> tuple[int, ...]:
        check(len(x) == self.rank, lambda: f"expected a vector of Z^{self.rank}")
        fs = self.group.invariant_factors
        return tuple(sum(a * row[j] for a, row in zip(x, self._matrix) if a) % f
                     for j, f in enumerate(fs))

    def with_basis(self, lifts) -> "LatticeQuotient":
        """Re-coordinatize the quotient on the classes of the given lifts."""
        fs = self.group.invariant_factors
        check(len(lifts) == len(fs), "need one lift per invariant factor")
        check(self.group.order <= 4096, "quotient too large to re-coordinatize")
        table = _coordinates(self.group, [self.project(l) for l in lifts], fs)
        check(len(table) == self.group.order, "lifts do not generate independent classes")
        other = LatticeQuotient.__new__(LatticeQuotient)
        other.rank, other.group = self.rank, self.group
        other.generator_lifts = tuple(tuple(l) for l in lifts)
        other._matrix = tuple(table[row] for row in self._matrix)
        return other


def sublattice_quotient(rows, sub_rows, smith) -> tuple[LatticeQuotient, IntMatrix]:
    """L/M for the row lattices L of `rows` and M of `sub_rows`, both of
    full rank r with M inside L, returned with the basis of L in whose
    coordinates the quotient is taken; `smith` is the Smith form of `rows`.

    The basis is diag(s) V^-1 for the Smith form U L V = S, which is the
    first r rows of U L = S V^-1: a vector x of L has coordinates
    (x V)_k / s_k in it."""
    s, u, v = smith
    r = len(v)
    diag = [s[i][i] if i < len(s) else 0 for i in range(r)]
    check(all(diag), "row lattice does not have full rank")
    coords = []
    for x in sub_rows:
        xv = [sum(a * v[j][k] for j, a in enumerate(x)) for k in range(r)]
        check(not any(c % d for c, d in zip(xv, diag)), "vector lies outside the lattice")
        coords.append([c // d for c, d in zip(xv, diag)])
    basis = [[sum(a * b for a, b in zip(row, col)) for col in zip(*rows)] for row in u[:r]]
    return LatticeQuotient(coords), basis


class AbelianAction(namedtuple("AbelianAction", "group actors")):
    """Named automorphisms of a finite abelian `group`, as integer matrices:
    `actors` maps each name to its matrix.

    Matrix column j is the image of the j-th invariant-factor generator;
    entries are taken modulo the factor of their row.
    """

    __slots__ = ()

    def __new__(cls, group: FiniteAbelianGroup, actors: dict):
        self = super().__new__(cls, group, actors)
        self.__post_init__()
        return self

    def __post_init__(self):  # the benchmark times the class by this method's name
        for name in self.actors:
            images = {self.apply(name, x) for x in self.group.elements()}
            check(len(images) == self.group.order, lambda: f"actor {name!r} is not invertible")

    def apply(self, name: str, x) -> tuple[int, ...]:
        m = self.actors[name]
        fs = self.group.invariant_factors
        k = len(fs)
        return tuple(
            sum(m[i][j] * x[j] for j in range(k)) % fs[i] for i in range(k)
        )
