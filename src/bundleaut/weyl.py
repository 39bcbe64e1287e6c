"""Weyl-group counts: the orbit counts, the group order, invariant degrees.

Everything works from the integer Cartan matrix.  The orbit counts and the
invariant degrees are cached on the DynkinType; the group order, which
`rootdata` asks for once per command, is not.  No W-orbit is searched.  The
orbit counts on the roots and on the ordered root pairs are counts of roots
in a closed chamber, read off the pairings of the roots with the simple
coroots that the root closure records: a reflection group has one root of
each of its orbits on the roots in its closed chamber (Humphreys,
Reflection Groups and Coxeter Groups 1.12).  The W-orbits of roots are
counted by the dominant roots, the orbits on ordered root pairs through the
stabilizers of the dominant roots, acting on one root at a time through the
permutations of the root indices that the simple reflections induce.  The
orbits on pairs of hyperplanes are the orbits of the order-8 group of swaps
and sign changes on those ordered-pair representatives.  The group order is
r! times the product of the coefficients of the highest root times the
connection index |P/Q|, one more than the number of those coefficients
equal to 1; the group is never enumerated.
Invariant degrees are computed two ways, checked to agree: from the
multiplicity of each cyclotomic factor in the characteristic polynomial of a
Coxeter element c, itself a permutation of the roots whose cycles give h and
whose powers give the traces, by Moebius inversion of tr(c^k) over the
divisors of the order h of c (Humphreys 3.19), with no polynomial
arithmetic, and as the dual partition of the numbers of positive roots of
each height (3.20).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import factorial, gcd, prod

from .rootdata import DynkinType, _cycles, _diagram, _unit, build_root_datum, check


def _root_permutations(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """For each simple reflection, the permutation it induces on the roots;
    a seam of its own, so that a test can replace the Coxeter element."""
    return build_root_datum(t).reflections


def _heights(t: DynkinType) -> list[int]:
    """The height of each root, the sum of its simple-root coordinates."""
    return [sum(root) for root in build_root_datum(t).roots]


@lru_cache(maxsize=None)
def orbit_counts(t: DynkinType) -> tuple[int, int, int]:
    """(m, n, ordered): the W-orbits on the roots, on unordered pairs of
    distinct hyperplanes (n = 0 in rank 1) and on ordered pairs of roots.

    A reflection group W' with simple system S' has one root of each of its
    orbits on Phi in the closed chamber <., alpha^vee> >= 0, alpha in S'
    (Humphreys 1.12), reached by applying the reflections of S' while they
    raise the root.  So m is the number of dominant roots theta, those whose
    pairings with the simple coroots are all >= 0, and also the number of
    root lengths, which is checked.  Stab_W(theta) is the parabolic W_J,
    J = {j : <theta, alpha_j^vee> = 0}, so each orbit on ordered pairs holds
    one representative (theta, beta), beta in the closed chamber of W_J.
    `canonical` reaches it: it climbs the first root to theta, applies the
    same word to the second and climbs that in W_J.  The unordered pairs of
    distinct hyperplanes are the ordered pairs (a, b), b != +-a, up to the
    order-8 group that the swap (a, b) -> (b, a) and the sign change
    (a, b) -> (-a, b) generate, which commutes with W; so n is the number of
    its orbits on the representatives with beta != +-theta, found by a walk
    over one table of the two generator images of each representative.
    Each generator is checked to send a representative to a representative
    that it sends back, each climb to a dominant root to end at one, and the
    pairings of each simple root to be its column of the Cartan matrix.
    """
    rd = build_root_datum(t)
    perms, pairings, roots = rd.reflections, rd.pairings, rd.roots
    n_roots = len(roots)
    half = n_roots // 2  # roots[half + q] is the positive root of pairings[q]
    check(all(pairings), lambda: f"a positive root of {t} pairs to zero with every simple coroot")
    dominant = [half + q for q, p in enumerate(pairings) if min(p.values()) > 0]
    m = len(dominant)
    lengths = len(set(_diagram(t)[0]))
    check(m == lengths, f"{t} has {m} dominant roots, not one for each of its "
          f"{lengths} root lengths")
    for i, column in enumerate(zip(*rd.cartan)):  # the simple roots, found by bisection
        alpha = _unit(t.rank, i)
        check(pairings[bisect_left(roots, alpha, half) - half]
              == {j: a for j, a in enumerate(column) if a},
              lambda: f"the pairings of the simple root {list(alpha)} of {t} are not its "
              "column of the Cartan matrix")

    def raising(k: int, among) -> int | None:
        """An i in `among` whose s_i raises root k, if there is one: roots
        sort with -beta in the reverse order of beta."""
        p, sign = (pairings[k - half], 1) if k >= half else (pairings[half - 1 - k], -1)
        return next((i for i, c in p.items() if sign * c < 0 and i in among), None)

    def climb(k: int, among) -> tuple[int, list[int]]:
        # root k raised by the s_i, i in `among`, to their chamber, with the
        # word applied; each step raises the height, which lies in
        # [1 - h, h - 1], so a climb longer than |Phi| = r h steps is a fault
        word = []
        while (i := raising(k, among)) is not None:
            check(len(word) < n_roots, lambda: f"a climb to a chamber in the roots of {t} "
                  f"takes more than |Phi| = {n_roots} steps")
            word.append(i)
            k = perms[i][k]
        return k, word

    simple = range(t.rank)
    # J for each dominant root theta: the s_j that fix it, as <theta, alpha_j^vee> = 0
    fixing = {theta: {j for j in simple if j not in pairings[theta - half]} for theta in dominant}
    tops = {}  # the climb of each first root to its dominant root

    def canonical(a: int, b: int) -> tuple[int, int]:
        """The representative (theta, beta) of the W-orbit of the pair (a, b)."""
        if a not in tops:
            tops[a] = climb(a, simple)
            check(tops[a][0] in fixing, lambda: f"a climb in the roots of {t} stops off "
                  "its dominant roots")
        theta, word = tops[a]
        for i in word:
            b = perms[i][b]
        return theta, climb(b, fixing[theta])[0]

    ordered = {(theta, beta) for theta in dominant for beta in range(n_roots)
                if raising(beta, fixing[theta]) is None}
    # each representative with beta != +-theta, and its images under the swap
    # and the sign change, as roots[n_roots - 1 - a] = -roots[a]
    images = {(a, b): (canonical(b, a), canonical(n_roots - 1 - a, b))
              for a, b in ordered if b != a and b != n_roots - 1 - a}
    for pair, moved in images.items():
        for g, image in enumerate(moved):
            check(image in images and images[image][g] == pair,
                  lambda: f"a swap or sign change of a pair of roots of {t} is not an "
                  "involution on the ordered-pair representatives")
    unseen, n = set(images), 0
    while unseen:
        n += 1
        orbit = [unseen.pop()]
        for pair in orbit:  # the list grows as it is walked
            for image in images[pair]:
                if image in unseen:
                    unseen.remove(image)
                    orbit.append(image)
    return m, n, len(ordered)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _coxeter_cyclotomics(t: DynkinType) -> tuple[int, dict[int, int]]:
    """The Coxeter number h and the multiplicity a_d of each cyclotomic
    Phi_d, d | h, in det(x - c), for the Coxeter element c = s_1 s_2 ... s_r
    taken as a permutation of the roots.

    c acts freely on Phi in r orbits of length h = |Phi|/r (Humphreys 3.19),
    which is checked and gives h, and c^h = 1 on V, which the roots span.
    So det(x - c) = prod_{d | h} (x^d - 1)^{b_d} for integers b_d, and
    tr(c^k) = sum_{d | h, d | k} d b_d.  The traces tr(c^k) are
    sum_j (c^k alpha_j)_j, read off the simple-root coordinates of the roots
    that c^k sends the simple roots to.  The b_d are solved for over the
    divisors in increasing order, each division by d checked exact, and all
    h traces are checked against them.  As x^d - 1 is the product of the
    Phi_e, e | d, a_e = sum_{e | d | h} b_d.
    """
    roots = build_root_datum(t).roots
    r, n_roots = t.rank, len(roots)
    c = list(range(n_roots))
    for p in reversed(_root_permutations(t)):
        c = [p[k] for k in c]
    h = n_roots // r
    lengths = sorted(map(len, _cycles(c)))
    check(lengths == [h] * r, f"a Coxeter element of {t} has orbits of lengths "
          f"{lengths} on the roots, not {r} of length |Phi|/r = {h}")
    # the simple roots, found by bisection among the positive roots
    at = [bisect_left(roots, _unit(r, j), n_roots // 2) for j in range(r)]
    traces = [r]  # tr(c^k) at index k
    for _ in range(h):
        at = [c[x] for x in at]
        traces.append(sum(roots[x][j] for j, x in enumerate(at)))
    divisors = _divisors(h)
    b: dict[int, int] = {}
    for d in divisors:
        rest = traces[d] - sum(e * b[e] for e in b if d % e == 0)
        check(rest % d == 0, lambda: f"the traces of a Coxeter element of {t} give "
              f"x^{d} - 1 the multiplicity {rest}/{d}, not an integer")
        b[d] = rest // d
    for k in range(1, h + 1):
        expected = sum(d * b[d] for d in divisors if k % d == 0)
        check(traces[k] == expected, lambda: f"a Coxeter element of {t} has tr(c^{k}) = "
              f"{traces[k]}, not {expected} as c^{h} = 1 requires")
    return h, {e: sum(b[d] for d in divisors if d % e == 0) for e in divisors}


@lru_cache(maxsize=None)
def invariant_degrees(t: DynkinType) -> tuple[int, ...]:
    """Degrees d_1 <= ... <= d_r of the free invariant generators, two ways.

    The characteristic polynomial of a Coxeter element factors into
    cyclotomics, each Phi_d contributing exponents j*h/d for j coprime to d,
    and degrees are exponents plus one.  Independently, the number of
    positive roots of height k is the number of exponents >= k (Kostant;
    Humphreys 3.20), so the exponents are the dual partition of the height
    counts.  The two are checked to agree.
    """
    h, mult = _coxeter_cyclotomics(t)
    check(min(mult.values()) >= 0, "characteristic polynomial is not a product of cyclotomics")
    check(mult[1] == 0, "a Coxeter element fixes no nonzero vector")
    exponents = [h // d * j for d, a in mult.items() for _ in range(a)
                 for j in range(1, d + 1) if gcd(j, d) == 1]
    check(len(exponents) == t.rank, f"{len(exponents)} exponents for rank {t.rank}")
    degrees = tuple(sorted(e + 1 for e in exponents))
    height = _heights(t)
    counts = [0] * (max(height) + 1)  # the number of positive roots of each height
    for k in height:
        if k > 0:
            counts[k] += 1
    by_height = tuple(sorted(1 + sum(n >= j for n in counts) for j in range(1, t.rank + 1)))
    check(degrees == by_height, f"the degrees {list(degrees)} of {t} from a Coxeter "
          f"element are not {list(by_height)} from the root heights")
    return degrees


def weyl_order(t: DynkinType) -> int:
    """|W| = r! n_1 ... n_r f, the n_i the coefficients of the highest root
    and f = det A = |P/Q| the connection index (Bourbaki VI 2.4, Prop. 7).

    theta - beta >= 0 coefficientwise for every root beta, so the highest
    root theta is the last of the sorted roots.  The fundamental coweights
    omega_i^vee with n_i = 1 represent the nonzero classes of P^vee/Q^vee
    (Bourbaki VI 2.3, Prop. 6, Cor.), so f = 1 + #{i : n_i = 1}.  The result
    is checked against the product of the invariant degrees (Humphreys 3.9).
    """
    theta = build_root_datum(t).roots[-1]
    w = factorial(t.rank) * prod(theta) * (1 + theta.count(1))
    degrees = invariant_degrees(t)
    check(w == prod(degrees), f"|W| = {w} is not the product of the degrees {list(degrees)}")
    return w
