"""Exact integer-lattice arithmetic and finite abelian groups.

Smith normal form over Z by elementary row/column reduction, quotients of
Z^r by the row or the column lattice of an integer relation matrix (both
from one Smith form) and of one row lattice by another
(`sublattice_quotient`), with invariant factors and explicit projection
maps, finite abelian groups in invariant-factor form, subgroup enumeration,
the quotient of a group by a subgroup, and named automorphism actions.

This module alone decides the coordinates of a finite abelian group and its
subgroups: a quotient is one integer matrix of unit-vector classes, a whole
group is its own subgroup in the ambient unit basis, a proper subgroup takes
the Smith basis of its lattice quotient, and one span table (`_coordinates`)
turns any such basis into coordinates.  Matrices are plain lists of lists
of Python ints; there is no size limit beyond practicality.

What depends only on an abstract group is built once per group and shared
by every caller, whichever Dynkin type it serves: the element sets of the
subgroups of a `FiniteAbelianGroup` (`enumerate_subgroups`), the
`Subgroup`, with its coordinates, that a given ambient group and element
set make (`Subgroup.from_elements`, built only for a set a caller asks
for), and the quotient by a subgroup (`Subgroup.quotient`).  A shared
result ran its checks when it was built.  `scaled_solve` applies e A^-1 to a few vectors from the Smith
form of A, so that no caller forms the whole inverse.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from math import prod

from .rootdata import check

IntMatrix = list[list[int]]


class LatticeError(ValueError):
    """Rank mismatch, non-containment, or a vector outside its lattice."""


def _int_identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Return (S, U, V, V^-1) with U*M*V = S, S diagonal, d_i | d_{i+1}.

    U and V are unimodular, and V^-1 is kept in step with V: a column
    operation on V is the inverse row operation on V^-1.  Pivots are chosen
    as the minimal nonzero absolute value (first in scan order on ties),
    which makes the output deterministic for a fixed input.  An entry of
    absolute value 1 is such a pivot, so the scan stops at the first one,
    and a unit pivot divides everything, so it skips the divisibility scan.
    """
    s = [list(row) for row in m]
    nrows = len(s)
    ncols = len(s[0]) if nrows else 0
    u = _int_identity(nrows)
    v = _int_identity(ncols)
    vinv = _int_identity(ncols)

    def row_op(i, j, q):  # row_i -= q * row_j
        s[i] = [a - q * b for a, b in zip(s[i], s[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in s:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]
        vinv[j] = [a + q * b for a, b in zip(vinv[j], vinv[i])]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    for t in range(min(nrows, ncols)):
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
        if t < min(nrows, ncols) and s[t][t] < 0:
            s[t] = [-a for a in s[t]]
            u[t] = [-a for a in u[t]]
    return s, u, v, vinv


def scaled_solve(smith, vectors) -> tuple[tuple[tuple[int, ...], ...], int]:
    """((x_1, ...), e) with A x_i = e w_i for the vectors w_i, from the Smith
    form (S, U, V, V^-1) of a square matrix A, e = d_n its last invariant
    factor.

    U A V = S = diag(d_1, ..., d_n) with d_k | e gives x = e A^-1 w =
    V diag(e / d_k) (U w): two matrix-vector products per vector, O(n^2),
    in integers.  A zero d_k means A is singular.  The row and column
    operations never turn an entry that is not an `int` into one, so such
    an entry of A leaves one in S, which raises `TypeError`.
    """
    s, u, v, _ = smith
    if not all(isinstance(x, int) for row in s for x in row):
        raise TypeError("matrix entries must be integers")
    d = [s[k][k] for k in range(len(s))]
    if not all(d):
        raise LatticeError("matrix is singular")
    e = d[-1] if d else 1
    solutions = []
    for w in vectors:
        uw = [e // dk * sum(a * b for a, b in zip(row, w)) for dk, row in zip(d, u)]
        solutions.append(tuple(sum(a * b for a, b in zip(row, uw)) for row in v))
    return tuple(solutions), e


class FiniteAbelianGroup(namedtuple("FiniteAbelianGroup", "invariant_factors")):
    """Z/l_1 x ... x Z/l_k with l_1 | l_2 | ... | l_k, every l_i >= 2.

    The empty tuple is the trivial group.  Elements are int tuples with
    coordinate i taken modulo l_i.
    """

    __slots__ = ()

    def __new__(cls, invariant_factors: tuple[int, ...]):
        fs = invariant_factors
        if any(f < 2 for f in fs):
            raise ValueError("invariant factors must be >= 2")
        if any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")
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
        if not self.invariant_factors:
            return "{0}"
        parts = []
        for f, group in itertools.groupby(self.invariant_factors):
            k = len(list(group))
            base = f"Z/{f}Z"
            parts.append(base if k == 1 else f"({base})^{k}")
        return " x ".join(parts)


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


def _torsion_rows(factors) -> IntMatrix:
    """diag(factors): the relations of Z/f_1 x ... x Z/f_k on Z^k."""
    return [[f if j == i else 0 for j in range(len(factors))] for i, f in enumerate(factors)]


class Subgroup:
    """A subgroup of a FiniteAbelianGroup, with explicit coordinates.

    `structure` is the subgroup's own invariant-factor form and `basis`
    realizes the decomposition inside the ambient group:  every element is
    sum(c_i * basis_i) with c the `to_coords` image.  The whole group is
    its own structure in the ambient unit basis, so its coordinates are the
    ambient ones; a proper subgroup takes the Smith basis of
    <generators, torsion> / torsion from `sublattice_quotient`, and the
    quotient ambient / self from the diagonal of the same Smith form.
    `from_elements` shares one instance per ambient group and element set,
    so nothing may change a subgroup once it is built.
    """

    def __init__(self, ambient: FiniteAbelianGroup, generators):
        self.ambient = ambient
        self.generators = tuple(ambient.reduce(g) for g in generators)
        self.elements = closure(ambient, self.generators)
        d = ambient.invariant_factors
        r = len(d)
        if len(self.elements) == ambient.order:
            self.structure = ambient
            self.basis = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
            self._quotient = FiniteAbelianGroup(())
        else:
            torsion = _torsion_rows(d)
            rows = [list(g) for g in self.generators] + torsion
            smith = smith_normal_form(rows)
            quotient, lattice = sublattice_quotient(rows, torsion, smith)
            self.structure = quotient.group
            self.basis = tuple(_combination(ambient, lift, lattice)
                               for lift in quotient.generator_lifts)
            # ambient/self = Z^r / <generators, torsion>, whose invariant
            # factors are the diagonal of that Smith form
            self._quotient = FiniteAbelianGroup(
                tuple(smith[0][k][k] for k in range(r) if smith[0][k][k] > 1))
        self._coords = _coordinates(ambient, self.basis, self.structure.invariant_factors)
        check(len(self._coords) == self.structure.order and self._coords.keys() == self.elements,
              "subgroup coordinates do not match its elements")

    @classmethod
    def from_elements(cls, ambient: FiniteAbelianGroup, elements) -> "Subgroup":
        """The subgroup with the given elements, one shared instance per
        ambient group and element set."""
        return _shared_subgroup(ambient, frozenset(ambient.reduce(e) for e in elements))

    def quotient(self) -> FiniteAbelianGroup:
        """ambient / self: trivial for the whole group, and otherwise read off
        the Smith form that built the subgroup's coordinates."""
        return self._quotient

    def to_coords(self, element) -> tuple[int, ...]:
        return self._coords[self.ambient.reduce(element)]

    def __eq__(self, other):
        return (isinstance(other, Subgroup)
                and self.ambient == other.ambient
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.ambient, self.elements))

    def __repr__(self):
        return f"Subgroup({self.structure.symbol()} in {self.ambient.symbol()})"


@lru_cache(maxsize=None)
def _shared_subgroup(ambient: FiniteAbelianGroup, elements: frozenset) -> Subgroup:
    """`Subgroup.from_elements`: generators picked greedily in sorted order."""
    gens: list[tuple[int, ...]] = []
    have = frozenset({ambient.zero()})
    for e in sorted(elements):
        if e not in have:
            gens.append(e)
            have = closure(ambient, gens)
    sub = Subgroup(ambient, gens)
    check(sub.elements == elements, "generators do not span the given elements")
    return sub


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
    the matching rows of V^-1, which project to the unit classes.  The
    column quotient reads the same Smith form: e_i has class (U e_i)_k, and
    column k of U^-1 = R V S^-1, that is R V e_k / d_k, lifts the unit
    class k.  A caller holding the Smith form passes it as `smith`, so both
    quotients of R cost one.  `with_basis` re-coordinatizes the matrix on
    the classes of other lifts.
    """

    def __init__(self, relations, smith=None, columns=False):
        rel = [list(row) for row in relations]
        r = len(rel)
        if any(len(row) != r for row in rel):
            raise LatticeError("need one relation row of length r per coordinate of Z^r")
        if not all(isinstance(x, int) for row in rel for x in row):
            raise LatticeError("relations must be integer vectors")
        s, u, v, vinv = smith or smith_normal_form(rel)
        full = [s[i][i] for i in range(r)]
        if any(f == 0 for f in full):
            raise LatticeError("relations do not span a full-rank lattice")
        positions = [i for i, f in enumerate(full) if f > 1]
        self.rank = r
        self.group = FiniteAbelianGroup(tuple(full[i] for i in positions))
        if columns:
            self.generator_lifts = tuple(
                tuple(sum(x * v[j][k] for j, x in enumerate(row)) // full[k] for row in rel)
                for k in positions)
            classes = [[u[k][i] for k in positions] for i in range(r)]
        else:
            self.generator_lifts = tuple(tuple(vinv[k]) for k in positions)
            classes = [[row[k] for k in positions] for row in v]
        self._matrix = tuple(self.group.reduce(c) for c in classes)

    def project(self, x) -> tuple[int, ...]:
        if len(x) != self.rank:
            raise LatticeError(f"expected a vector of Z^{self.rank}")
        fs = self.group.invariant_factors
        return tuple(sum(a * row[j] for a, row in zip(x, self._matrix) if a) % f
                     for j, f in enumerate(fs))

    def with_basis(self, lifts) -> "LatticeQuotient":
        """Re-coordinatize the quotient on the classes of the given lifts."""
        fs = self.group.invariant_factors
        if len(lifts) != len(fs):
            raise LatticeError("need one lift per invariant factor")
        if self.group.order > 4096:
            raise LatticeError("quotient too large to re-coordinatize")
        table = _coordinates(self.group, [self.project(l) for l in lifts], fs)
        if len(table) != self.group.order:
            raise LatticeError("lifts do not generate independent classes")
        other = LatticeQuotient.__new__(LatticeQuotient)
        other.rank, other.group = self.rank, self.group
        other.generator_lifts = tuple(tuple(l) for l in lifts)
        other._matrix = tuple(table[row] for row in self._matrix)
        return other


def lattice_quotient(relations) -> LatticeQuotient:
    return LatticeQuotient(relations)


def sublattice_quotient(rows, sub_rows, smith=None) -> tuple[LatticeQuotient, IntMatrix]:
    """L/M for the row lattices L of `rows` and M of `sub_rows`, both of
    full rank r with M inside L, returned with the basis of L in whose
    coordinates the quotient is taken.  A caller holding the Smith form of
    `rows` passes it as `smith`.

    The basis is diag(s) V^-1 for the Smith form U L V = S: a vector x of L
    has coordinates (x V)_k / s_k in it."""
    s, _, v, vinv = smith or smith_normal_form(rows)
    r = len(v)
    diag = [s[i][i] if i < len(s) else 0 for i in range(r)]
    if 0 in diag:
        raise LatticeError("row lattice does not have full rank")
    coords = []
    for x in sub_rows:
        xv = [sum(a * v[j][k] for j, a in enumerate(x)) for k in range(r)]
        if any(c % d for c, d in zip(xv, diag)):
            raise LatticeError("vector lies outside the lattice")
        coords.append([c // d for c, d in zip(xv, diag)])
    return LatticeQuotient(coords), [[d * a for a in row] for d, row in zip(diag, vinv)]


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

    def names(self) -> tuple[str, ...]:
        return tuple(self.actors)

    def matrix(self, name: str):
        return self.actors[name]

    def apply(self, name: str, x) -> tuple[int, ...]:
        m = self.actors[name]
        fs = self.group.invariant_factors
        k = len(fs)
        return tuple(
            sum(m[i][j] * x[j] for j in range(k)) % fs[i] for i in range(k)
        )
