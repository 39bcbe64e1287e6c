"""Weyl-group machinery: orbits, Coxeter elements, degrees, longest element.

Everything works from the integer Cartan matrix, and every per-type result
is cached on the DynkinType.  A Weyl element is an integer r x r matrix on
simple-root coordinates.  Orbit computations act through simple-reflection
generators only, encoded as permutations of the root list so the
breadth-first searches run on small integers.  Orbits on ordered root pairs
are counted through the parabolic stabilizers of the dominant roots, without
forming the |Phi|^2 pairs.  The group order comes from an
orbit-stabilizer chain on fundamental weights, in fundamental-weight
coordinates; the full group is never enumerated.  Invariant degrees are read
off the cyclotomic factorization of the integer characteristic polynomial of
a Coxeter element (Humphreys, Reflection Groups and Coxeter Groups 3.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .rootdata import DynkinType, _unit, build_root_datum, check, root_hyperplanes

IntMatrix = tuple[tuple[int, ...], ...]


class EmptyPairSet(ValueError):
    """Rank-1 systems have a single hyperplane and no distinct pairs."""


def _identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


@dataclass(frozen=True)
class WeylElement:
    """An integer matrix on simple-root coordinates, column j the image of
    alpha_j, with a word in the simple reflections when known."""

    matrix: IntMatrix
    word: tuple[int, ...] | None = None

    def apply(self, v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sum(x * y for x, y in zip(row, v)) for row in self.matrix)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        return WeylElement(_mat_mul(self.matrix, other.matrix), word)

    @property
    def is_identity(self) -> bool:
        return self.matrix == _identity(len(self.matrix))

    def order(self) -> int:
        n = 1
        power = self
        while not power.is_identity:
            power = power * self
            n += 1
            if n > 10000:
                raise RuntimeError("element order runaway")
        return n


@dataclass(frozen=True)
class OrbitDecomposition:
    items: tuple
    orbits: tuple[tuple, ...]

    @property
    def num_orbits(self) -> int:
        return len(self.orbits)


def simple_reflection_element(t: DynkinType, i: int) -> WeylElement:
    # row i of s_i is e_i - A[i]; the other rows are those of the identity
    cartan = build_root_datum(t).cartan
    rows = list(_identity(t.rank))
    rows[i] = tuple(rows[i][j] - cartan[i][j] for j in range(t.rank))
    return WeylElement(tuple(rows), (i,))


@lru_cache(maxsize=None)
def _root_permutations(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """For each simple reflection, the permutation it induces on the roots."""
    rd = build_root_datum(t)
    index = {root: k for k, root in enumerate(rd.roots)}
    perms = []
    for i in range(rd.rank):
        perms.append(tuple(index[rd.simple_reflection(i, r)] for r in rd.roots))
    return tuple(perms)


def _orbit_partition(n_items: int, perms) -> list[list[int]]:
    seen = [False] * n_items
    orbits = []
    for start in range(n_items):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for p in perms:
                    y = p[x]
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
                        nxt.append(y)
            frontier = nxt
        orbits.append(sorted(orbit))
    orbits.sort(key=lambda o: o[0])
    return orbits


def orbits_on_roots(t: DynkinType) -> OrbitDecomposition:
    rd = build_root_datum(t)
    perms = _root_permutations(t)
    orbits = _orbit_partition(len(rd.roots), perms)
    return OrbitDecomposition(
        items=rd.roots,
        orbits=tuple(tuple(rd.roots[i] for i in orbit) for orbit in orbits),
    )


def orbits_on_hyperplane_pairs(t: DynkinType) -> OrbitDecomposition:
    """W-orbits on unordered pairs of distinct root hyperplanes."""
    if t.rank < 2:
        raise EmptyPairSet("rank-1 systems have no singular discriminant locus")
    rd = build_root_datum(t)
    planes = root_hyperplanes(rd)
    plane_of = {root: k for k, plane in enumerate(planes) for root in plane}
    index = {root: k for k, root in enumerate(rd.roots)}
    reps = [index[max(plane)] for plane in planes]
    # s_i sends the hyperplane {a, -a} to the hyperplane of s_i(a)
    perms = [tuple(plane_of[rd.roots[perm[r]]] for r in reps) for perm in _root_permutations(t)]
    h = len(planes)
    pairs = [(i, j) for i in range(h) for j in range(i + 1, h)]
    pair_index = {p: k for k, p in enumerate(pairs)}
    pair_perms = []
    for perm in perms:
        images = []
        for i, j in pairs:
            a, b = perm[i], perm[j]
            images.append(pair_index[(a, b) if a < b else (b, a)])
        pair_perms.append(tuple(images))
    orbits = _orbit_partition(len(pairs), pair_perms)
    items = tuple(frozenset((planes[i], planes[j])) for i, j in pairs)
    return OrbitDecomposition(
        items=items,
        orbits=tuple(tuple(items[k] for k in orbit) for orbit in orbits),
    )


@lru_cache(maxsize=None)
def discriminant_orbit_counts(t: DynkinType) -> tuple[int, int]:
    """(m, n): the W-orbits on roots and on unordered pairs of distinct
    hyperplanes, with n = 0 in rank 1.  Only the counts are kept."""
    m = orbits_on_roots(t).num_orbits
    try:
        n = orbits_on_hyperplane_pairs(t).num_orbits
    except EmptyPairSet:
        n = 0
    return m, n


def ordered_root_pair_orbit_count(t: DynkinType) -> int:
    """Number of W-orbits on Phi x Phi under the diagonal action.

    Reported alongside the distinct-hyperplane-pair count; the two differ
    because each hyperplane carries two roots and the diagonal contributes
    orbits of its own.

    Every orbit of pairs has a representative (theta, beta) with theta the
    one dominant root of its W-orbit, unique up to Stab_W(theta) acting on
    beta.  That stabilizer is the standard parabolic generated by the s_i
    with <theta, alpha_i^vee> = (A theta)_i = 0 (Humphreys 1.12), so the
    count is a sum of parabolic orbit counts on Phi, one per dominant root.
    """
    rd = build_root_datum(t)
    perms = _root_permutations(t)
    total = 0
    for theta in rd.roots:
        pairings = [sum(a * x for a, x in zip(row, theta)) for row in rd.cartan]
        if min(pairings) >= 0:
            stabilizer = [perms[i] for i, c in enumerate(pairings) if c == 0]
            total += len(_orbit_partition(len(rd.roots), stabilizer))
    return total


def coxeter_element(t: DynkinType) -> WeylElement:
    w = WeylElement(_identity(t.rank), ())
    for i in range(t.rank):
        w = w * simple_reflection_element(t, i)
    return w


def coxeter_number(t: DynkinType) -> int:
    return coxeter_element(t).order()


def _charpoly(m: IntMatrix) -> list[int]:
    """det(xI - M) by Faddeev-LeVerrier, descending coefficients.

    For an integer matrix every coefficient is an integer, so each division
    by k is exact."""
    n = len(m)
    coeffs = [1]
    mk = tuple((0,) * n for _ in range(n))
    c = 1
    for k in range(1, n + 1):
        mk = _mat_mul(m, tuple(
            tuple(mk[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n)))
        trace = sum(mk[i][i] for i in range(n))
        check(trace % k == 0, "Faddeev-LeVerrier division is not exact")
        c = -trace // k
        coeffs.append(c)
    return coeffs


def _poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    # ascending coefficients, b monic in its leading term
    a = list(a)
    q = [0] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        lead, blead = a[-1], b[-1]
        if lead % blead:
            return q, a
        f = lead // blead
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
    while a and a[-1] == 0:
        a.pop()
    return q, a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, ascending."""
    poly = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            q, r = _poly_divmod(poly, list(cyclotomic_polynomial(e)))
            check(not r, f"Phi_{e} does not divide x^{d} - 1")
            poly = q
    return tuple(poly)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def invariant_degrees(t: DynkinType) -> tuple[int, ...]:
    """Degrees d_1 <= ... <= d_r of the free invariant generators.

    Extracted from the characteristic polynomial of a Coxeter element: the
    polynomial factors into cyclotomics, each Phi_d contributing exponents
    j*h/d for j coprime to d, and degrees are exponents plus one.
    """
    cox = coxeter_element(t)
    h = cox.order()
    poly = _charpoly(cox.matrix)[::-1]  # ascending
    exponents: list[int] = []
    trivial_mult = 0
    for d in _divisors(h):
        phi = list(cyclotomic_polynomial(d))
        while True:
            q, r = _poly_divmod(poly, phi)
            if r:
                break
            poly = q
            if d == 1:
                trivial_mult += 1
            else:
                step = h // d
                exponents.extend(step * j for j in range(1, d + 1) if gcd(j, d) == 1)
    check(poly == [1], "characteristic polynomial is not a product of cyclotomics")
    check(trivial_mult == 0, "a Coxeter element fixes no nonzero vector")
    check(len(exponents) == t.rank, f"{len(exponents)} exponents for rank {t.rank}")
    return tuple(sorted(e + 1 for e in exponents))


def longest_element(t: DynkinType) -> WeylElement:
    """The unique element sending every positive root to a negative root.

    Greedy descent: as long as some w(alpha_i), column i of w, is a
    positive root (coordinates all >= 0), append s_i; each step increases
    the length by one.
    """
    w = WeylElement(_identity(t.rank), ())
    while True:
        i = next((i for i in range(t.rank) if all(row[i] >= 0 for row in w.matrix)), None)
        if i is None:
            return w
        w = w * simple_reflection_element(t, i)


@lru_cache(maxsize=None)
def weyl_order(t: DynkinType) -> int:
    """|W| by an orbit-stabilizer chain on fundamental weights.

    Stab_W(w_i) is the parabolic generated by the other simple reflections,
    so |W| = |orbit(w_i)| * |W_{S - i}| recursively; orbits are small even
    in rank 8.  In fundamental-weight coordinates omega_i is the unit vector
    e_i and s_j(v) = v - v_j (column j of A).
    """
    cartan = build_root_datum(t).cartan
    columns = list(zip(*cartan))  # alpha_j in fundamental-weight coordinates

    def order(active: frozenset) -> int:
        if not active:
            return 1
        i = min(active)
        start = _unit(t.rank, i)
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for j in active:
                    c = v[j]
                    if c == 0:
                        continue
                    image = tuple(x - c * a for x, a in zip(v, columns[j]))
                    if image not in orbit:
                        orbit.add(image)
                        nxt.append(image)
            frontier = nxt
        return len(orbit) * order(active - {i})

    return order(frozenset(range(t.rank)))
