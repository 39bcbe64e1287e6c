"""Root data of the simple Dynkin families, in integer Cartan coordinates.

A root datum is its Cartan matrix A, with cartan[i][j] = <alpha_j, alpha_i^vee>,
and its roots as int tuples in simple-root coordinates.  In these
coordinates the simple reflection is s_i(v) = v - (sum_j A[i][j] v_j) e_i,
with no coroot division.  The positive roots are the closure of the unit
vectors under it, leaving out s_i(alpha_i) = -alpha_i, and the negative
roots and the reflections' action on them follow by the symmetry
s_i(-beta) = -s_i(beta).  Weights and coweights are taken in
fundamental-(co)weight coordinates, in which the simple roots are the
columns of A and the simple coroots its rows (Bourbaki, Lie Groups and Lie
Algebras VI 1.9-1.10).

The Cartan matrix is read off the Dynkin diagram, its bonds and the squared
lengths of the simple roots, in integers.  `bundleaut rootdata` also prints
the simple roots of the usual ambient realisation, held doubled so that they
are integers too, and checks that they have the same Cartan matrix: A, B, C
use the e_i - e_j / +-e_i / +-2e_i conventions, D_n the coordinates with
Q(D_n) the even integer vectors, the E-types the standard even coordinates
of R^8 and G_2 the sum-zero plane of R^3.

The package's cross-check helper `check` lives here too, beside `InvalidType`:
every command loads this module, so the helper adds no module to import.
So do the rank ceilings of the command line, `MAX_RANK` and `MAX_TABLE_RANK`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul, neg

DEFAULT_MAX_RANK = 8
# the ranks the command line takes: `rootdata` and `report` up to MAX_RANK,
# `table --max-rank` up to MAX_TABLE_RANK; the README states the cost of a
# command at each ceiling
MAX_RANK = 80
MAX_TABLE_RANK = 50

_FAMILIES = "ABCDEFG"


class ConsistencyError(RuntimeError):
    """An internal cross-check failed: the program, not its input, is wrong.
    The CLI exits with code 3."""


def check(cond: bool, msg) -> None:
    """The package's cross-checks; unlike `assert`, kept under `python -O`.
    `msg` is the message, or a function returning it where formatting it
    costs more than the test: it is called only when the check fails."""
    if not cond:
        raise ConsistencyError(msg() if callable(msg) else msg)


class InvalidType(ValueError):
    """Family/rank pair outside the admissible classification."""


class DynkinType(namedtuple("DynkinType", "family rank")):
    """A family letter and a rank, checked admissible at construction.
    Equality, order and hash are those of the tuple (family, rank).  A
    pickle rebuilds a type through `__new__`, so a loaded type takes the
    hash of the process that loads it: that of a str differs between
    processes."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        ok = (
            (family == "A" and rank >= 1)
            or (family == "B" and rank >= 2)
            or (family == "C" and rank >= 3)
            or (family == "D" and rank >= 4)
            or (family == "E" and rank in (6, 7, 8))
            or (family == "F" and rank == 4)
            or (family == "G" and rank == 2)
        )
        if not ok:
            raise InvalidType(f"inadmissible Dynkin type {family}{rank}")
        return super().__new__(cls, family, rank)

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def label(self) -> str:
        return f"{self.family}_{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "DynkinType":
        s = text.strip().replace("_", "").replace(" ", "")
        # the rank in ASCII digits: `isdecimal` alone takes any decimal digit
        if len(s) < 2 or s[0].upper() not in _FAMILIES or not (
                s[1:].isascii() and s[1:].isdecimal()):
            raise InvalidType(f"cannot parse Dynkin type from {text!r}")
        try:
            rank = int(s[1:])
        except ValueError:  # more digits than `int` reads from text
            raise InvalidType(f"the rank of {s[0].upper()} has {len(s) - 1} digits; "
                              f"the supported ranks are 1 to {MAX_RANK}") from None
        return cls(s[0].upper(), rank)

    def __str__(self) -> str:
        return self.name


def _unit(dim: int, i: int) -> tuple[int, ...]:
    """e_i of Z^dim, 0 <= i < dim; the rows of an identity matrix are these."""
    return (0,) * i + (1,) + (0,) * (dim - 1 - i)


def _cycles(perm) -> list[list[int]]:
    """The cycles of a permutation of range(len(perm)), fixed points
    included, each from its least point and in the order of those points.
    The walk stops at a point already seen, so it ends on any map."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        cycle, k = [], start
        while not seen[k]:
            seen[k] = True
            cycle.append(k)
            k = perm[k]
        if cycle:
            cycles.append(cycle)
    return cycles


def _minus(u, v) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(u, v))


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def ambient_simple_roots(t: DynkinType) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The ambient dimension and the simple roots of the usual realisation,
    each doubled, so that the halves of E and F are integers too."""
    n, family = t.rank, t.family
    dim = {"A": n + 1, "E": 8, "F": 4, "G": 3}.get(family, n)
    e = [tuple(2 * x for x in _unit(dim, i)) for i in range(dim)]  # 2 e_i
    chain = [_minus(e[i], e[i + 1]) for i in range(dim - 1)]
    if family == "A":
        return dim, tuple(chain)
    if family == "B":
        return dim, (*chain, e[-1])
    if family == "C":
        return dim, (*chain, (0,) * (n - 1) + (4,))
    if family == "D":
        return dim, (*chain, (0,) * (n - 2) + (2, 2))
    if family == "E":
        # alpha_1 = (e_1 - e_2 - ... - e_7 + e_8) / 2 and alpha_2 = e_1 + e_2
        return dim, ((1, -1, -1, -1, -1, -1, -1, 1), (2, 2) + (0,) * 6,
                     *(_minus(e[k], e[k - 1]) for k in range(1, n - 1)))
    if family == "F":
        return dim, (chain[1], chain[2], e[3], (1, -1, -1, -1))
    return dim, (chain[0], (-4, 2, 2))  # G_2, in the sum-zero plane of R^3


def has_cartan_matrix(simples, cartan) -> bool:
    """Whether the simple roots a_i have the Cartan matrix `cartan`:
    2 (a_j, a_i) = cartan[i][j] (a_i, a_i) with (a_i, a_i) > 0, so that every
    division 2 (a_j, a_i) / (a_i, a_i) is exact.  A common scale, such as the
    doubling, cancels."""
    if len(simples) != len(cartan):
        return False
    for a, row in zip(simples, cartan):
        norm = _dot(a, a)
        if norm <= 0 or any(2 * _dot(b, a) != c * norm for b, c in zip(simples, row)):
            return False
    return True


def _diagram(t: DynkinType) -> tuple[list[int], list[tuple[int, int]]]:
    """The squared lengths of the simple roots, the short ones 2, and the
    bonds of the Dynkin diagram, in Bourbaki's numbering from 0."""
    n, family = t.rank, t.family
    lengths = {"B": [4] * (n - 1) + [2], "C": [2] * (n - 1) + [4],
               "F": [4, 4, 2, 2], "G": [2, 6]}.get(family, [2] * n)
    bonds = [(i, i + 1) for i in range(n - 1)]
    if family == "D":
        bonds[-1] = (n - 3, n - 1)
    elif family == "E":
        bonds[:2] = [(0, 2), (1, 3)]
    return lengths, bonds


def cartan_matrix(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """<alpha_j, alpha_i^vee> = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i),
    read off the Dynkin diagram in O(r^2) integers.

    The two roots of a bond have (alpha_i, alpha_j) = -l/2, l the larger of
    their squared lengths, so the longer root's row holds -1 and the shorter
    one's -l/l_i, the multiplicity of the bond."""
    lengths, bonds = _diagram(t)
    n = t.rank
    gram = [[lengths[i] * x for x in _unit(n, i)] for i in range(n)]
    for i, j in bonds:
        gram[i][j] = gram[j][i] = -max(lengths[i], lengths[j]) // 2
    check(not any(2 * x % norm for norm, row in zip(lengths, gram) for x in row),
          "Cartan entry is not an integer")
    rows = tuple(tuple(2 * x // norm for x in row) for norm, row in zip(lengths, gram))
    for i, row in enumerate(rows):
        check(row[i] == 2, "Cartan diagonal entry is not 2")
        check(all(c in (0, -1, -2, -3) for j, c in enumerate(row) if j != i),
              "Cartan entry off the diagonal is not 0, -1, -2 or -3")
    return rows


class RootDatum(namedtuple("RootDatum", (
        "dynkin", "cartan",
        "roots",  # simple-root coordinates, sorted
        # for each simple reflection s_i, the permutation it induces on the
        # indices of `roots`
        "reflections",
        # the nonzero <beta, alpha_i^vee> as {i: value}, one dict per positive
        # root beta, in the order of `roots`; -beta has the negated ones
        "pairings"))):
    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.dynkin.rank


@lru_cache(maxsize=None)
def build_root_datum(t: DynkinType) -> RootDatum:
    """The Cartan matrix and the roots, with the permutation of the root
    indices that each simple reflection induces and the pairings of the
    positive roots with the simple coroots, built from the positive roots.

    s_i permutes the positive roots other than alpha_i and sends alpha_i to
    -alpha_i (Humphreys, Reflection Groups and Coxeter Groups 1.4), so the
    closure runs on the positive half.  Each positive root beta carries its
    nonzero pairings p_j = <beta, alpha_j^vee>: s_i fixes beta where p_i = 0,
    and otherwise s_i(beta) = beta - p_i alpha_i has the pairings
    p - p_i (column i of A).  Roots sort with the negatives first, -beta in
    the reverse order of beta, and s_i(-beta) = -s_i(beta), so each table
    starts as the identity and takes the moves of the positive roots and of
    their negatives.  Every entry is taken from one list of index ints, so
    the tables hold no more int objects than there are roots.

    |Phi| = r h with h <= 2r for the classical types and h <= 30 for the
    exceptional ones, so a closure past r^2 + 120 positive roots, that is
    2r^2 + 240 roots, is a check failure: a wrong Cartan matrix, whose real
    roots may be infinite, stops there."""
    cartan = cartan_matrix(t)
    r = t.rank
    bound = r ** 2 + 120
    # the nonzero entries of each column of A, and of each pairing vector
    columns = [{j: a for j, a in enumerate(column) if a} for column in zip(*cartan)]
    found = [_unit(r, i) for i in range(r)]
    pairings = columns[:]  # the pairings of alpha_i are column i of A
    index = {root: k for k, root in enumerate(found)}
    moves: list[list[tuple[int, int]]] = [[] for _ in range(r)]  # s_i: found[k] -> found[j]
    for k, root in enumerate(found):  # the list grows as it is walked
        p = pairings[k]
        for i, c in p.items():
            if k == i:  # s_i(alpha_i) = -alpha_i is set below
                continue
            image = root[:i] + (root[i] - c,) + root[i + 1:]
            j = index.get(image)
            if j is None:
                j = index[image] = len(found)
                if j == bound:  # one comparison per new root; the message only on failure
                    check(False, f"the root closure of {t.name} holds more than "
                                 f"2r^2 + 240 = {2 * bound} roots")
                found.append(image)
                moved = dict(p)
                for m, a in columns[i].items():
                    x = moved.get(m, 0) - c * a
                    if x:
                        moved[m] = x
                    else:
                        del moved[m]
                pairings.append(moved)
            moves[i].append((k, j))
    half = len(found)
    order = sorted(range(half), key=found.__getitem__)
    ints = list(range(2 * half))
    up = [0] * half  # the index of found[k] among the sorted roots
    down = [0] * half  # the index of -found[k]
    for q, k in enumerate(order):
        up[k], down[k] = ints[half + q], ints[half - 1 - q]
    reflections = []
    for i, pairs in enumerate(moves):
        table = ints[:]
        for k, j in pairs:
            table[up[k]], table[down[k]] = up[j], down[j]
        table[up[i]], table[down[i]] = down[i], up[i]
        reflections.append(tuple(table))
    return RootDatum(
        dynkin=t, cartan=cartan,
        roots=tuple(tuple(map(neg, found[k])) for k in reversed(order))
        + tuple(found[k] for k in order),
        reflections=tuple(reflections), pairings=tuple(pairings[k] for k in order))


def admissible_types(max_rank: int) -> list[DynkinType]:
    """All admissible types up to the rank bound, in classification order.

    The A family is bounded by SL_n matrix size (n <= max_rank, so rank
    n-1); B/C/D by Dynkin rank; exceptional types appear when their rank
    fits.
    """
    types: list[DynkinType] = []
    types += [DynkinType("A", n - 1) for n in range(2, max_rank + 1)]
    types += [DynkinType("B", n) for n in range(2, max_rank + 1)]
    types += [DynkinType("C", n) for n in range(3, max_rank + 1)]
    types += [DynkinType("D", n) for n in range(4, max_rank + 1)]
    types += [DynkinType("E", n) for n in (6, 7, 8) if n <= max_rank]
    if max_rank >= 4:
        types.append(DynkinType("F", 4))
    if max_rank >= 2:
        types.append(DynkinType("G", 2))
    return types
