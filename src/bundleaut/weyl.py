"""Weyl-group counts: the orbit counts, the group order, invariant degrees.

Everything works from the integer Cartan matrix, and every per-type result
is cached on the DynkinType.  Nothing searches an orbit.  Each orbit count
is a count of roots in a closed chamber, read off the pairings of the roots
with the simple coroots that the root closure records: a reflection group
has one root of each of its orbits on the roots in its closed chamber
(Humphreys, Reflection Groups and Coxeter Groups 1.12).  The W-orbits of
roots are counted by the dominant roots, the orbits on ordered root pairs
and on pairs of hyperplanes through the stabilizers of the dominant roots
and of their hyperplanes, acting on one root at a time through the
permutations of the root indices that the simple reflections induce.  The
group order is r! times the product of the coefficients of the highest root
times the connection index |P/Q|, one more than the number of those
coefficients equal to 1; the group is never enumerated.
Invariant degrees are computed two ways, checked to agree: from the
multiplicity of each cyclotomic factor in the characteristic polynomial of a
Coxeter element c, itself a permutation of the roots whose cycles give h and
whose powers give the traces, by Moebius inversion of tr(c^k) over the
divisors of the order h of c (Humphreys 3.19), with no polynomial
arithmetic, and as the dual partition of the numbers of positive roots of
each height (3.20).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, gcd, prod

from .rootdata import DynkinType, _diagram, _unit, build_root_datum, check


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
    distinct hyperplanes (n = 0 in rank 1) and on ordered pairs of roots,
    each a count of roots in a closed chamber.

    A reflection group W' with simple system S' has one root of each of its
    orbits on Phi in the closed chamber <., alpha^vee> >= 0, alpha in S'
    (Humphreys 1.12), reached by applying the reflections of S' while they
    raise the root.  So m is the number of dominant roots theta, those whose
    pairings with the simple coroots are all >= 0; every root is W-conjugate
    to a simple root, and the roots of one length form one orbit, so m is
    also the number of root lengths, which is checked.  Stab_W(theta) is the
    parabolic W_J, J = {j : <theta, alpha_j^vee> = 0}, so the orbits on
    ordered pairs, which each hold one pair (theta, beta), number the roots
    in the closed chamber of W_J, summed over theta.

    Each W-orbit of hyperplanes holds the hyperplane H_theta of one dominant
    root, and Stab_W(H_theta) = W' = W_J x <s_theta>, with simple system
    J + {theta}, as theta is orthogonal to the alpha_j (Bourbaki V 3.3).  A
    root reaches its W'-chamber by climbing in W_J and then applying s_theta
    once if its pairing with theta^vee is negative; s_theta commutes with
    W_J.  Both are taken through a word w lowering theta to a simple root
    alpha_i: <gamma, theta^vee> = <w gamma, alpha_i^vee> and
    s_theta = w^-1 s_i w.  The W'-orbits on hyperplanes are the classes
    {beta, chamber root of -beta} of the chamber roots beta, and those other
    than {theta}, summed over theta, are the O orbits on ordered pairs of
    distinct hyperplanes.  Swapping the two entries acts on these orbits; F
    of them are swap-stable, so n = (O + F) / 2.  The class of H_beta is
    swap-stable when a word u raising the positive root of +-beta to its
    dominant root ends at theta, as u sends (H_beta, H_theta) to
    (H_theta, H_{u theta}), and the chamber root of u theta is in the class.
    """
    rd = build_root_datum(t)
    perms, pairings, roots = rd.reflections, rd.pairings, rd.roots
    n_roots = len(roots)
    half = n_roots // 2  # roots[half + q] is the positive root of pairings[q]

    def signed(k: int) -> tuple[dict[int, int], int]:
        """The pairings of root k as those of a positive root and a sign:
        roots sort with -beta in the reverse order of beta."""
        return (pairings[k - half], 1) if k >= half else (pairings[half - 1 - k], -1)

    def raising(k: int, among) -> int | None:
        """An i in `among` whose s_i raises root k, if there is one."""
        p, sign = signed(k)
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

    def apply(word, k: int) -> int:
        for j in word:
            k = perms[j][k]
        return k

    dominant = [half + q for q, p in enumerate(pairings) if min(p.values()) > 0]
    m = len(dominant)
    lengths = len(set(_diagram(t)[0]))
    check(m == lengths, f"{t} has {m} dominant roots, not one for each of its "
          f"{lengths} root lengths")
    simple = range(t.rank)
    ordered = pair_orbits = swap_stable = 0
    for theta in dominant:
        fixing = {j for j in simple if j not in pairings[theta - half]}
        chamber = [k for k in range(n_roots) if raising(k, fixing) is None]
        ordered += len(chamber)
        k, w = theta, []
        while sum(roots[k]) > 1 and len(w) < n_roots:
            i = next((i for i, c in pairings[k - half].items() if c > 0), None)
            if i is None:
                break
            w.append(i)
            k = perms[i][k]
        check(sum(roots[k]) == 1, f"the pairings of {t} lower the dominant root "
              f"{list(roots[theta])} to no simple root in |Phi| = {n_roots} steps")
        i = roots[k].index(1)

        def theta_pairing(k: int) -> int:
            p, sign = signed(apply(w, k))
            return sign * p.get(i, 0)

        def chamber_root(k: int) -> int:
            k = climb(k, fixing)[0]
            if theta_pairing(k) >= 0:
                return k
            return apply(reversed(w), perms[i][apply(w, k)])  # s_theta(k)

        classes = {frozenset((k, chamber_root(n_roots - 1 - k)))
                   for k in chamber if theta_pairing(k) >= 0}
        pair_orbits += len(classes) - 1  # all but the class {theta} of H_theta
        for cls in classes:
            beta = next(iter(cls))
            top, u = climb(max(beta, n_roots - 1 - beta), simple)  # the positive one of +-beta
            if top == theta and theta not in cls:
                swap_stable += chamber_root(apply(u, theta)) in cls
    check((pair_orbits + swap_stable) % 2 == 0,
          f"O + F = {pair_orbits} + {swap_stable} is odd for {t}")
    return m, (pair_orbits + swap_stable) // 2, ordered


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
    lengths, seen = [], [False] * n_roots
    for start in range(n_roots):  # the cycles of c
        k, length = start, 0
        while not seen[k]:
            seen[k] = True
            k, length = c[k], length + 1
        if length:
            lengths.append(length)
    lengths.sort()
    check(lengths == [h] * r, f"a Coxeter element of {t} has orbits of lengths "
          f"{lengths} on the roots, not {r} of length |Phi|/r = {h}")
    index = {root: k for k, root in enumerate(roots)}
    at = [index[_unit(r, j)] for j in range(r)]
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


@lru_cache(maxsize=None)
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
