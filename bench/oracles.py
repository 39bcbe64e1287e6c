"""Reference values for the benchmark's output checks, derived without bundleaut.

Closed forms per Dynkin type follow Humphreys, *Reflection Groups and
Coxeter Groups*, Table 3.1 (degrees, |W|, Coxeter number) and the plates of
Bourbaki, *Lie Groups and Lie Algebras* VI (root counts, Cartan matrices,
P/Q, group forms).  Orbit counts come from Burnside's lemma over the Weyl
group, which is enumerated as permutations of roots built from the integer
Cartan matrix alone.  Nothing here imports the package under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod

# Weyl groups up to this order are enumerated for the Burnside counts:
# that covers 17 of the 30 types (up to A6, B5, C5, D5, F4) in about a
# second; D6, A7 and larger would take several seconds each.
BURNSIDE_MAX_ORDER = 10_000

# The admissible types of `table --max-rank 8`: A1..A7 (SL_n for n <= 8),
# B2..B8, C3..C8, D4..D8, E6, E7, E8, F4, G2.
TYPES: tuple[tuple[str, int], ...] = (
    tuple(("A", n) for n in range(1, 8))
    + tuple(("B", n) for n in range(2, 9))
    + tuple(("C", n) for n in range(3, 9))
    + tuple(("D", n) for n in range(4, 9))
    + (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))
)

_EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}
_EXCEPTIONAL_ROOTS = {("E", 6): 72, ("E", 7): 126, ("E", 8): 240, ("F", 4): 48, ("G", 2): 12}
_EXCEPTIONAL_WEYL = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
                     ("F", 4): 1152, ("G", 2): 12}
_EXCEPTIONAL_CENTER = {("E", 6): (3,), ("E", 7): (2,), ("E", 8): (), ("F", 4): (), ("G", 2): ()}


def degrees(family: str, n: int) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(2, n + 2))
    if family in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if family == "D":
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    return _EXCEPTIONAL_DEGREES[(family, n)]


def num_roots(family: str, n: int) -> int:
    return {"A": n * (n + 1), "B": 2 * n * n, "C": 2 * n * n,
            "D": 2 * n * (n - 1)}.get(family) or _EXCEPTIONAL_ROOTS[(family, n)]


def weyl_order(family: str, n: int) -> int:
    if family == "A":
        return factorial(n + 1)
    if family in "BC":
        return 2 ** n * factorial(n)
    if family == "D":
        return 2 ** (n - 1) * factorial(n)
    return _EXCEPTIONAL_WEYL[(family, n)]


def center_factors(family: str, n: int) -> tuple[int, ...]:
    """Invariant factors of P/Q = Hom(Z(G^sc), G_m)."""
    if family == "A":
        return (n + 1,)
    if family in "BC":
        return (2,)
    if family == "D":
        return (2, 2) if n % 2 == 0 else (4,)
    return _EXCEPTIONAL_CENTER[(family, n)]


def _diagram(family: str, n: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Squared root lengths (scaled to integers) and the edges, Bourbaki
    numbering from 0."""
    chain = [(i, i + 1) for i in range(n - 1)]
    if family == "A":
        return [2] * n, chain
    if family == "B":
        return [4] * (n - 1) + [2], chain
    if family == "C":
        return [2] * (n - 1) + [4], chain
    if family == "D":
        return [2] * n, chain[:-1] + [(n - 3, n - 1)]
    if family == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]
        return [2] * n, [(i, j) for i, j in edges if j < n]
    if family == "F":
        return [4, 4, 2, 2], chain
    return [2, 6], chain  # G2: short root first


@lru_cache(maxsize=None)
def cartan(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entry (i, j) = <alpha_j, alpha_i^vee>, the
    convention `rootdata` prints (the transpose of Humphreys')."""
    lengths, edges = _diagram(family, n)
    gram = [[lengths[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = -max(lengths[i], lengths[j]) // 2
    rows = []
    for i in range(n):
        assert all(2 * gram[i][j] % lengths[i] == 0 for j in range(n))
        rows.append(tuple(2 * gram[i][j] // lengths[i] for j in range(n)))
    return tuple(rows)


def det(m) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    a = [list(row) for row in m]
    size = len(a)
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


@dataclass(frozen=True)
class TypeFacts:
    family: str
    rank: int
    num_roots: int
    weyl_order: int
    degrees: tuple[int, ...]
    coxeter_number: int
    center: tuple[int, ...]  # invariant factors of P/Q
    center_order: int  # det(Cartan) = |Z(G^sc)|
    cartan: tuple[tuple[int, ...], ...]
    root_orbits: int  # m: one orbit per root length

    @property
    def label(self) -> str:
        return f"{self.family}_{self.rank}"

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def dim_group(self) -> int:
        return self.rank + self.num_roots


@lru_cache(maxsize=None)
def type_facts(family: str, n: int) -> TypeFacts:
    degs = degrees(family, n)
    nroots = num_roots(family, n)
    order = weyl_order(family, n)
    center = center_factors(family, n)
    a = cartan(family, n)
    facts = TypeFacts(
        family=family, rank=n, num_roots=nroots, weyl_order=order,
        degrees=degs, coxeter_number=max(degs), center=center,
        center_order=det(a), cartan=a,
        root_orbits=1 if family in "ADE" else 2,
    )
    # The closed forms are tabulated independently; they must agree with
    # each other before they may judge the program.
    assert len(degs) == n and prod(degs) == order, (family, n)
    assert 2 * sum(d - 1 for d in degs) == nroots == n * max(degs), (family, n)
    assert prod(center) == facts.center_order, (family, n)
    return facts


# ---------------------------------------------------------------------------
# Burnside counts from the integer Cartan matrix


@dataclass(frozen=True)
class OrbitCounts:
    roots: int  # m
    hyperplane_pairs: int  # n: unordered pairs of distinct hyperplanes
    ordered_root_pairs: int


def _roots_in_simple_coordinates(a) -> list[tuple[int, ...]]:
    n = len(a)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(n):
                # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i
                c = sum(beta[j] * a[i][j] for j in range(n))
                image = tuple(b - c if k == i else b for k, b in enumerate(beta))
                if image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt
    return sorted(roots)


def can_enumerate(family: str, n: int) -> bool:
    return weyl_order(family, n) <= BURNSIDE_MAX_ORDER


@lru_cache(maxsize=None)
def burnside_counts(family: str, n: int) -> OrbitCounts:
    """Orbit counts as averages of fixed points over every element of W."""
    a = cartan(family, n)
    roots = _roots_in_simple_coordinates(a)
    assert len(roots) == num_roots(family, n), (family, n)
    index = {r: k for k, r in enumerate(roots)}
    gens = []
    for i in range(n):
        perm = []
        for beta in roots:
            c = sum(beta[j] * a[i][j] for j in range(n))
            perm.append(index[tuple(b - c if k == i else b for k, b in enumerate(beta))])
        gens.append(tuple(perm))
    positive = [k for k, r in enumerate(roots) if max(r) > 0]
    plane_of = {}
    for h, k in enumerate(positive):
        plane_of[k] = h
        plane_of[index[tuple(-x for x in roots[k])]] = h

    identity = tuple(range(len(roots)))
    seen = {identity}
    frontier = [identity]
    fix_roots = fix_ordered = fix_pairs = 0
    while frontier:
        nxt = []
        for w in frontier:
            f = sum(1 for k, x in enumerate(w) if k == x)
            fix_roots += f
            fix_ordered += f * f
            image = [plane_of[w[k]] for k in positive]
            fixed = sum(1 for h, x in enumerate(image) if h == x)
            swaps = sum(1 for h, x in enumerate(image) if x != h and image[x] == h) // 2
            fix_pairs += comb(fixed, 2) + swaps
            for g in gens:
                v = tuple(g[x] for x in w)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    order = len(seen)
    assert order == weyl_order(family, n), (family, n, order)
    assert fix_roots % order == fix_pairs % order == fix_ordered % order == 0
    return OrbitCounts(fix_roots // order, fix_pairs // order, fix_ordered // order)


# ---------------------------------------------------------------------------
# group forms G = G^sc / mu


@dataclass(frozen=True)
class FormFacts:
    family: str
    rank: int
    token: str  # the form token of the CLI's `<TYPE><rank>:<form>` grammar
    name: str
    pi1: tuple[int, ...]  # invariant factors of pi_1(G) = mu
    chars: tuple[int, ...]  # invariant factors of Hom(Z(G), G_m)
    out_order: int

    @property
    def spec(self) -> str:
        return f"{self.family}{self.rank}:{self.token}"

    def labels(self) -> list[tuple[int, ...]]:
        """Every component label delta in pi_1(G), in invariant-factor
        coordinates."""
        out = [()]
        for f in self.pi1:
            out = [x + (c,) for x in out for c in range(f)]
        return out


def _cyclic(k: int) -> tuple[int, ...]:
    return () if k == 1 else (k,)


def forms(family: str, n: int) -> list[FormFacts]:
    """The isomorphism classes of quotients of G^sc, one per orbit of
    Out(G^sc) on subgroups of the centre."""
    def form(token, name, pi1, chars, out):
        return FormFacts(family, n, token, name, pi1, chars, out)

    if family == "A":
        m = n + 1
        out = 2 if n >= 2 else 1
        result = []
        for k in range(1, m + 1):
            if m % k:
                continue
            token = "sc" if k == 1 else "adjoint" if k == m else f"mu{k}"
            name = f"SL_{m}" if k == 1 else f"PSL_{m}" if k == m else f"SL_{m}/mu_{k}"
            result.append(form(token, name, _cyclic(k), _cyclic(m // k), out))
        return result
    if family == "B":
        return [form("sc", f"Spin_{2 * n + 1}", (), (2,), 1),
                form("adjoint", f"SO_{2 * n + 1}", (2,), (), 1)]
    if family == "C":
        return [form("sc", f"Sp_{2 * n}", (), (2,), 1),
                form("adjoint", f"PSp_{2 * n}", (2,), (), 1)]
    if family == "D":
        m = 2 * n
        if n % 2:
            return [form("sc", f"Spin_{m}", (), (4,), 2),
                    form("so", f"SO_{m}", (2,), (2,), 2),
                    form("adjoint", f"PSO_{m}", (4,), (), 2)]
        if n == 4:  # triality folds both semispin forms into SO_8
            return [form("sc", "Spin_8", (), (2, 2), 6),
                    form("so", "SO_8", (2,), (2,), 2),
                    form("adjoint", "PSO_8", (2, 2), (), 6)]
        # the diagram flip swaps the two semispin kernels, so it is no
        # automorphism of SemiSpin
        return [form("sc", f"Spin_{m}", (), (2, 2), 2),
                form("semispin", f"SemiSpin_{m}", (2,), (2,), 1),
                form("so", f"SO_{m}", (2,), (2,), 2),
                form("adjoint", f"PSO_{m}", (2, 2), (), 2)]
    if family == "E" and n in (6, 7):
        z = 3 if n == 6 else 2
        out = 2 if n == 6 else 1
        return [form("sc", f"E{n}_sc", (), (z,), out),
                form("adjoint", f"E{n}_ad", (z,), (), out)]
    return [form("sc", f"{family}{n}", (), (), 1)]


def all_forms() -> list[FormFacts]:
    return [f for family, n in TYPES for f in forms(family, n)]


def forms_by_name() -> dict[str, FormFacts]:
    return {f.name: f for f in all_forms()}
