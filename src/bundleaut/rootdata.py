"""Root data of the simple Dynkin families, in integer Cartan coordinates.

A root datum is its Cartan matrix A, with cartan[i][j] = <alpha_j, alpha_i^vee>,
and its roots as int tuples in simple-root coordinates.  In these
coordinates the simple reflection is s_i(v) = v - (sum_j A[i][j] v_j) e_i,
with no coroot division, and the roots are the closure of the unit vectors
under it.  Weights and coweights are taken in fundamental-(co)weight
coordinates, in which the simple roots are the columns of A and the simple
coroots its rows (Bourbaki, Lie Groups and Lie Algebras VI 1.9-1.10).

The Cartan matrix is read once off the usual ambient realisation, in exact
rationals, which is also what `bundleaut rootdata` prints: A, B, C use the
e_i - e_j / +-e_i / +-2e_i conventions, D_n the coordinates with Q(D_n) the
even integer vectors, the E-types the standard even coordinates of R^8 and
G_2 the sum-zero plane of R^3.

The package's cross-check helper `check` lives here too, beside `InvalidType`:
every command loads this module, so the helper adds no module to import.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

DEFAULT_MAX_RANK = 8

_FAMILIES = "ABCDEFG"


class ConsistencyError(RuntimeError):
    """An internal cross-check failed: the program, not its input, is wrong.
    The CLI exits with code 3."""


def check(cond: bool, msg: str) -> None:
    """The package's cross-checks; unlike `assert`, kept under `python -O`."""
    if not cond:
        raise ConsistencyError(msg)


class InvalidType(ValueError):
    """Family/rank pair outside the admissible classification."""


@dataclass(frozen=True, order=True)
class DynkinType:
    family: str
    rank: int

    def __post_init__(self):
        fam, n = self.family, self.rank
        ok = (
            (fam == "A" and n >= 1)
            or (fam == "B" and n >= 2)
            or (fam == "C" and n >= 3)
            or (fam == "D" and n >= 4)
            or (fam == "E" and n in (6, 7, 8))
            or (fam == "F" and n == 4)
            or (fam == "G" and n == 2)
        )
        if not ok:
            raise InvalidType(f"inadmissible Dynkin type {fam}{n}")

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def label(self) -> str:
        return f"{self.family}_{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "DynkinType":
        s = text.strip().replace("_", "")
        if len(s) < 2 or s[0].upper() not in _FAMILIES or not s[1:].isdigit():
            raise InvalidType(f"cannot parse Dynkin type from {text!r}")
        return cls(s[0].upper(), int(s[1:]))

    def __str__(self) -> str:
        return self.name


Root = tuple[int, ...]
AmbientVector = tuple[Fraction, ...]


def _unit(dim: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(dim))


def _ambient(coords) -> AmbientVector:
    return tuple(Fraction(c) for c in coords)


def _minus(u, v) -> AmbientVector:
    return _ambient(a - b for a, b in zip(u, v))


def ambient_simple_roots(t: DynkinType) -> tuple[int, tuple[AmbientVector, ...]]:
    """The ambient dimension and the simple roots of the usual realisation."""
    n = t.rank
    half = Fraction(1, 2)
    chain = [_minus(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
    if t.family == "A":
        dim = n + 1
        return dim, tuple(_minus(_unit(dim, i), _unit(dim, i + 1)) for i in range(n))
    if t.family == "B":
        return n, (*chain, _ambient(_unit(n, n - 1)))
    if t.family == "C":
        return n, (*chain, _ambient(2 * x for x in _unit(n, n - 1)))
    if t.family == "D":
        return n, (*chain, _ambient([0] * (n - 2) + [1, 1]))
    if t.family == "E":
        a1 = _ambient([half, -half, -half, -half, -half, -half, -half, half])
        a2 = _ambient([1, 1, 0, 0, 0, 0, 0, 0])
        rest = [_minus(_unit(8, k - 2), _unit(8, k - 3)) for k in range(3, 9)]
        return 8, tuple([a1, a2] + rest)[:n]
    if t.family == "F":
        return 4, (
            _ambient([0, 1, -1, 0]),
            _ambient([0, 0, 1, -1]),
            _ambient([0, 0, 0, 1]),
            _ambient([half, -half, -half, -half]),
        )
    # G_2: realized in the sum-zero plane of R^3
    return 3, (_ambient([1, -1, 0]), _ambient([-2, 1, 1]))


def cartan_matrix(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """<alpha_j, alpha_i^vee> = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i).

    The ratio is taken on the simple roots scaled to integer vectors."""
    _, simples = ambient_simple_roots(t)
    den = lcm(*(x.denominator for a in simples for x in a))
    scaled = [[int(x * den) for x in a] for a in simples]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    rows = []
    for a in scaled:
        norm = dot(a, a)
        row = []
        for b in scaled:
            c, rem = divmod(2 * dot(b, a), norm)
            if rem:
                raise InvalidType(f"non-integral Cartan pairing for {t}")
            row.append(c)
        rows.append(tuple(row))
    n = t.rank
    for i in range(n):
        check(rows[i][i] == 2, "Cartan diagonal entry is not 2")
        for j in range(n):
            if i != j:
                check(rows[i][j] in (0, -1, -2, -3),
                      "Cartan entry off the diagonal is not 0, -1, -2 or -3")
    return tuple(rows)


def _reflect(cartan, i: int, v: Root) -> Root:
    # s_i(v) = v - <v, alpha_i^vee> alpha_i
    c = sum(a * x for a, x in zip(cartan[i], v))
    return v[:i] + (v[i] - c,) + v[i + 1:]


@dataclass(frozen=True)
class RootDatum:
    dynkin: DynkinType
    cartan: tuple[tuple[int, ...], ...]
    roots: tuple[Root, ...]  # simple-root coordinates, sorted
    # for each simple reflection s_i, the permutation it induces on the
    # indices of `roots`
    reflections: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.dynkin.rank

    def simple_reflection(self, i: int, v: Root) -> Root:
        return _reflect(self.cartan, i, v)


@lru_cache(maxsize=None)
def build_root_datum(t: DynkinType) -> RootDatum:
    """The Cartan matrix and the roots, the closure of the simple roots
    under the simple reflections, with the index of every s_i image that
    the closure computes."""
    cartan = cartan_matrix(t)
    found = [_unit(t.rank, i) for i in range(t.rank)]
    index = {root: k for k, root in enumerate(found)}
    images: list[list[int]] = [[] for _ in range(t.rank)]
    # <v, alpha_i^vee> over the nonzero entries of row i only
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in cartan]
    for k, root in enumerate(found):  # the list grows as it is walked
        for i, row in enumerate(rows):
            c = sum(a * root[j] for j, a in row)
            if c == 0:
                images[i].append(k)
                continue
            image = root[:i] + (root[i] - c,) + root[i + 1:]
            j = index.get(image)
            if j is None:
                j = index[image] = len(found)
                found.append(image)
            images[i].append(j)
    order = sorted(range(len(found)), key=found.__getitem__)
    position = [0] * len(found)
    for new, old in enumerate(order):
        position[old] = new
    return RootDatum(
        dynkin=t, cartan=cartan, roots=tuple(found[old] for old in order),
        reflections=tuple(tuple(position[image[old]] for old in order)
                          for image in images))


def admissible_types(max_rank: int = DEFAULT_MAX_RANK) -> list[DynkinType]:
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
