"""Exact integer-lattice arithmetic and finite abelian groups.

Smith normal form over Z by elementary row/column reduction, quotients of
Z^r by the row lattice of an integer relation matrix, with invariant factors
and explicit projection maps, finite abelian groups in invariant-factor
form, subgroup enumeration, and named automorphism actions on them.
Matrices are plain lists of lists of Python ints; there is no size limit
beyond practicality.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from math import prod

from .rootdata import check

IntMatrix = list[list[int]]


class LatticeError(ValueError):
    """Rank mismatch, non-containment, or a vector outside its lattice."""


def _int_identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m: list[list[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (S, U, V) with U*M*V = S, S diagonal, d_i | d_{i+1}.

    U and V are unimodular.  Pivots are chosen as the minimal nonzero
    absolute value (first in scan order on ties), which makes the output
    deterministic for a fixed input.
    """
    s, u, v, _ = _smith_with_inverse(m)
    return s, u, v


def _smith_with_inverse(m) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """smith_normal_form plus V^-1, kept in step with V: a column operation
    on V is the inverse row operation on V^-1."""
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


def _prime_powers(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def from_cyclic_orders(orders) -> "FiniteAbelianGroup":
    """Canonical invariant factors of a direct sum of cyclic groups."""
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        for p, e in _prime_powers(n).items():
            by_prime.setdefault(p, []).append(p ** e)
    for parts in by_prime.values():
        parts.sort(reverse=True)
    k = max((len(parts) for parts in by_prime.values()), default=0)
    factors = []
    for i in range(k):
        f = prod(parts[i] for parts in by_prime.values() if i < len(parts))
        factors.append(f)
    factors.reverse()
    return FiniteAbelianGroup(tuple(factors))


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z/l_1 x ... x Z/l_k with l_1 | l_2 | ... | l_k, every l_i >= 2.

    The empty tuple is the trivial group.  Elements are int tuples with
    coordinate i taken modulo l_i.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = self.invariant_factors
        if any(f < 2 for f in fs):
            raise ValueError("invariant factors must be >= 2")
        if any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")

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

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-a) % f for a, f in zip(x, self.invariant_factors))

    def element_order(self, x) -> int:
        n = 1
        y = self.reduce(x)
        while any(y):
            y = self.add(y, x)
            n += 1
        return n

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


def torsion_power(g: FiniteAbelianGroup, exponent_2g: int) -> FiniteAbelianGroup:
    """(Z/l_1)^{2g} + ... + (Z/l_k)^{2g}, renormalized to invariant factors.

    exponent_2g must be 2*genus with genus >= 2.
    """
    if exponent_2g < 4 or exponent_2g % 2:
        raise ValueError("exponent must be 2*genus with genus >= 2")
    orders = [f for f in g.invariant_factors for _ in range(exponent_2g)]
    return from_cyclic_orders(orders)


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


def _row_lattice_basis(rows: IntMatrix, rank: int) -> tuple[IntMatrix, list[int], IntMatrix]:
    """A basis (rank x rank) of the row lattice of an integer matrix.

    The basis is diag(s) V^-1 for the Smith form U M V = S, returned with
    s and V: a lattice vector x has coordinates (x V)_k / s_k in it."""
    s, _, v, vinv = _smith_with_inverse(rows)
    diag = [s[i][i] if i < len(s) else 0 for i in range(rank)]
    if 0 in diag:
        raise LatticeError("row lattice does not have full rank")
    return [[d * x for x in row] for d, row in zip(diag, vinv)], diag, v


def _lattice_coords(x, diag: list[int], v: IntMatrix) -> list[int]:
    """Coordinates of x in the basis diag(s) V^-1 of `_row_lattice_basis`."""
    xv = [sum(x[j] * v[j][k] for j in range(len(x))) for k in range(len(diag))]
    if any(c % d for c, d in zip(xv, diag)):
        raise LatticeError("vector lies outside the lattice")
    return [c // d for c, d in zip(xv, diag)]


class Subgroup:
    """A subgroup of a FiniteAbelianGroup, with explicit coordinates.

    `structure` is the subgroup's own invariant-factor form and `basis`
    realizes the decomposition inside the ambient group:  every element is
    sum(c_i * basis_i) with c the `to_coords` image.
    """

    def __init__(self, ambient: FiniteAbelianGroup, generators, basis=None):
        self.ambient = ambient
        self.generators = tuple(ambient.reduce(g) for g in generators)
        self.elements = closure(ambient, self.generators)
        self._init_structure()
        if basis is not None:
            self._remap_basis(tuple(ambient.reduce(b) for b in basis))

    @classmethod
    def from_elements(cls, ambient: FiniteAbelianGroup, elements) -> "Subgroup":
        elements = frozenset(ambient.reduce(e) for e in elements)
        gens: list[tuple[int, ...]] = []
        have = frozenset({ambient.zero()})
        for e in sorted(elements):
            if e not in have:
                gens.append(e)
                have = closure(ambient, gens)
        sub = cls(ambient, gens)
        check(sub.elements == elements, "generators do not span the given elements")
        return sub

    def _init_structure(self):
        d = self.ambient.invariant_factors
        r = len(d)
        if r == 0 or len(self.elements) == 1:
            self.structure = FiniteAbelianGroup(())
            self.basis = ()
            self._coords = {self.ambient.zero(): ()}
            return
        rows = [list(g) for g in self.generators]
        rows += [[d[i] if j == i else 0 for j in range(r)] for i in range(r)]
        bl, bl_diag, bl_v = _row_lattice_basis(rows, r)
        mk = [_lattice_coords(row, bl_diag, bl_v) for row in rows[-r:]]
        s, _, _, vinv = _smith_with_inverse(mk)
        full = [s[i][i] for i in range(r)]
        positions = [i for i, f in enumerate(full) if f > 1]
        self.structure = FiniteAbelianGroup(tuple(full[i] for i in positions))
        basis = []
        for i in positions:
            z = [sum(vinv[i][k] * bl[k][j] for k in range(r)) for j in range(r)]
            basis.append(self.ambient.reduce(z))
        self.basis = tuple(basis)
        # tabulate coordinates; subgroups here are small
        coords = {}
        for c in self.structure.elements():
            elt = self.ambient.zero()
            for ci, b in zip(c, self.basis):
                for _ in range(ci):
                    elt = self.ambient.add(elt, b)
            coords[elt] = c
        check(len(coords) == len(self.elements) == self.structure.order,
              "subgroup coordinates do not match its order")
        self._coords = coords

    def _remap_basis(self, basis):
        coords = {}
        for c in self.structure.elements():
            elt = self.ambient.zero()
            for ci, b in zip(c, basis):
                for _ in range(ci):
                    elt = self.ambient.add(elt, b)
            coords[elt] = c
        if len(coords) != self.structure.order or set(coords) != set(self.elements):
            raise ValueError("proposed basis does not decompose the subgroup")
        self.basis = basis
        self._coords = coords

    def with_basis(self, basis) -> "Subgroup":
        return Subgroup(self.ambient, self.generators, basis=basis)

    def to_coords(self, element) -> tuple[int, ...]:
        return self._coords[self.ambient.reduce(element)]

    def from_coords(self, coords) -> tuple[int, ...]:
        elt = self.ambient.zero()
        for ci, b in zip(self.structure.reduce(coords), self.basis):
            for _ in range(ci):
                elt = self.ambient.add(elt, b)
        return elt

    def __contains__(self, element) -> bool:
        return self.ambient.reduce(element) in self.elements

    def canonical_key(self):
        return (len(self.elements), tuple(sorted(self.elements)))

    def __eq__(self, other):
        return (isinstance(other, Subgroup)
                and self.ambient == other.ambient
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.ambient, self.elements))

    def __repr__(self):
        return f"Subgroup({self.structure.symbol()} in {self.ambient.symbol()})"


def enumerate_subgroups(g: FiniteAbelianGroup) -> list[Subgroup]:
    """Every subgroup exactly once, ordered by size then element lists."""
    all_elements = list(g.elements())
    seen = {frozenset({g.zero()})}
    frontier = list(seen)
    while frontier:
        nxt = []
        for elems in frontier:
            for x in all_elements:
                if x not in elems:
                    grown = closure(g, list(elems) + [x])
                    if grown not in seen:
                        seen.add(grown)
                        nxt.append(grown)
        frontier = nxt
    ordered = sorted(seen, key=lambda e: (len(e), tuple(sorted(e))))
    return [Subgroup.from_elements(g, elems) for elems in ordered]


class LatticeQuotient:
    """Z^r modulo the row lattice of an r x r integer relation matrix.

    With U R V = S in Smith normal form, `project` sends x in Z^r to
    (x V) mod d_i at the invariant factors d_i > 1, its class in
    invariant-factor coordinates; `generator_lifts` are the matching rows of
    V^-1, which project to the unit classes.
    """

    def __init__(self, relations):
        rel = [list(row) for row in relations]
        r = len(rel)
        if any(len(row) != r for row in rel):
            raise LatticeError("need one relation row of length r per coordinate of Z^r")
        if not all(isinstance(x, int) for row in rel for x in row):
            raise LatticeError("relations must be integer vectors")
        s, _, v, vinv = _smith_with_inverse(rel)
        full = [s[i][i] for i in range(r)]
        if any(f == 0 for f in full):
            raise LatticeError("relations do not span a full-rank lattice")
        self.rank = r
        self._full = full
        self._v = v
        self._positions = [i for i, f in enumerate(full) if f > 1]
        self.group = FiniteAbelianGroup(tuple(full[i] for i in self._positions))
        self.generator_lifts = tuple(tuple(vinv[i]) for i in self._positions)
        self._remap = None

    def project(self, x) -> tuple[int, ...]:
        coords = self._unmapped_project(x)
        if self._remap is not None:
            return self._remap[coords]
        return coords

    def lift(self, coords) -> tuple[int, ...]:
        result = [0] * self.rank
        for c, g in zip(coords, self.generator_lifts):
            result = [a + c * b for a, b in zip(result, g)]
        return tuple(result)

    def with_basis(self, lifts) -> "LatticeQuotient":
        """Re-coordinatize the quotient on the classes of the given lifts."""
        if len(lifts) != len(self.group.invariant_factors):
            raise LatticeError("need one lift per invariant factor")
        if self.group.order > 4096:
            raise LatticeError("quotient too large to re-coordinatize")
        base_coords = [self._unmapped_project(l) for l in lifts]
        table = {}
        for c in self.group.elements():
            total = self.group.zero()
            for ci, b in zip(c, base_coords):
                for _ in range(ci):
                    total = self.group.add(total, b)
            table[total] = c
        if len(table) != self.group.order:
            raise LatticeError("lifts do not generate independent classes")
        other = copy.copy(self)
        other._remap = table
        other.generator_lifts = tuple(tuple(l) for l in lifts)
        return other

    def _unmapped_project(self, x):
        if len(x) != self.rank:
            raise LatticeError(f"expected a vector of Z^{self.rank}")
        v = self._v
        return tuple(
            sum(x[k] * v[k][j] for k in range(self.rank)) % self._full[j]
            for j in self._positions)


def lattice_quotient(relations) -> LatticeQuotient:
    return LatticeQuotient(relations)


@dataclass(frozen=True)
class AbelianAction:
    """Named automorphisms of a finite abelian group, as integer matrices.

    Matrix column j is the image of the j-th invariant-factor generator;
    entries are taken modulo the factor of their row.
    """

    group: FiniteAbelianGroup
    actors: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]

    def __post_init__(self):
        for name, m in self.actors:
            images = {self.apply(name, x) for x in self.group.elements()}
            if len(images) != self.group.order:
                raise ValueError(f"actor {name!r} is not invertible")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.actors)

    def matrix(self, name: str):
        for n, m in self.actors:
            if n == name:
                return m
        raise KeyError(name)

    def apply(self, name: str, x) -> tuple[int, ...]:
        m = self.matrix(name)
        fs = self.group.invariant_factors
        k = len(fs)
        return tuple(
            sum(m[i][j] * x[j] for j in range(k)) % fs[i] for i in range(k)
        )
