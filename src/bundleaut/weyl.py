"""Weyl-group counts: the orbit counts, the group order, invariant degrees.

Everything works from the integer Cartan matrix, and every per-type result
is cached on the DynkinType.  Orbit computations act through simple-reflection
generators only, as the permutations of the root indices that the root
closure records, so the breadth-first searches run on small integers and keep
only the orbit numbers.  Each W-orbit of roots holds exactly one dominant
root, read off the permutations and the root heights.  Orbits on ordered root
pairs and on pairs of hyperplanes are counted through the stabilizers of the
dominant roots and their hyperplanes, without forming any pairs.  The group
order is r! times the product of the coefficients of the highest root times
the connection index |P/Q|, one more than the number of those coefficients
equal to 1; the group is never enumerated.
Invariant degrees are computed two ways, checked to agree: from the
multiplicity of each cyclotomic factor in the characteristic polynomial of a
Coxeter element c, itself a permutation of the roots whose powers give the
traces, by Moebius inversion of tr(c^k) over the divisors of the order h of c
(Humphreys, Reflection Groups and Coxeter Groups 3.19), with no polynomial
arithmetic, and as the dual partition of the numbers of positive roots of
each height (3.20).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, gcd, prod

from .rootdata import DynkinType, _unit, build_root_datum, check


@lru_cache(maxsize=None)
def _root_permutations(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """For each simple reflection, the permutation it induces on the roots."""
    return build_root_datum(t).reflections


def _orbits(n_items: int, perms) -> tuple[list[int], list[int]]:
    """The orbits on range(n_items) of the group the perms generate: the
    orbit number of each item, and the first item of each orbit."""
    label = [-1] * n_items
    firsts: list[int] = []
    for start in range(n_items):
        if label[start] >= 0:
            continue
        label[start] = len(firsts)
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for p in perms:
                    y = p[x]
                    if label[y] < 0:
                        label[y] = label[start]
                        nxt.append(y)
            frontier = nxt
        firsts.append(start)
    return label, firsts


def _heights(t: DynkinType) -> list[int]:
    """The height of each root, the sum of its simple-root coordinates."""
    return [sum(root) for root in build_root_datum(t).roots]


def _dominant_roots(t: DynkinType, height: list[int]):
    """Each dominant root theta, as its index, with the indices i of the
    simple reflections that fix it.

    s_i(theta) = theta - <theta, alpha_i^vee> alpha_i, so theta is dominant,
    <theta, alpha_i^vee> >= 0 for all i, iff no s_i raises its height, and
    s_i fixes it iff the pairing is 0.  Dominant roots are positive.  Every
    W-orbit of roots meets the closed dominant chamber exactly once, and
    Stab_W(theta) is the standard parabolic generated by those s_i
    (Humphreys 1.12)."""
    perms = _root_permutations(t)
    for k in range(len(height) // 2, len(height)):
        if all(height[p[k]] <= height[k] for p in perms):
            yield k, [i for i, p in enumerate(perms) if p[k] == k]


@lru_cache(maxsize=None)
def discriminant_orbit_counts(t: DynkinType) -> tuple[int, int]:
    """(m, n): the W-orbits on roots, one per dominant root, and on
    unordered pairs of distinct hyperplanes, n = 0 in rank 1.

    Each W-orbit of hyperplanes holds the hyperplane H_theta of one dominant
    root theta, and Stab_W(H_theta) = W_J x <s_theta>, W_J the parabolic
    fixing theta (Bourbaki V 3.3).  Its orbits on the other hyperplanes,
    summed over theta, are the O orbits on ordered pairs.  The swap of the
    two entries acts on these orbits; F of them are swap-stable, so
    n = (O + F) / 2.
    """
    perms = _root_permutations(t)
    height = _heights(t)
    n_roots = len(height)
    dominant = list(_dominant_roots(t, height))
    m = len(dominant)
    root_label, root_orbits = _orbits(n_roots, perms)
    check(len(root_orbits) == m and len({root_label[k] for k, _ in dominant}) == m,
          f"{len(root_orbits)} W-orbits of roots do not hold one each of the "
          f"{m} dominant roots")
    # the hyperplane {a, -a} is numbered by its positive root a; roots are
    # sorted, so the negative ones come first, in the reverse order
    half = n_roots // 2
    plane = [half - 1 - k if k < half else k - half for k in range(n_roots)]
    plane_perms = [[plane[k] for k in p[half:]] for p in perms]

    def steps(k: int, sign: int):
        """The simple reflections that move root k up (sign 1) or down
        (sign -1) in height."""
        return [i for i, p in enumerate(perms) if sign * (height[p[k]] - height[k]) > 0]

    def climb(k: int) -> tuple[int, list[int]]:
        # a positive root rises to the dominant root of its orbit
        word = []
        while up := steps(k, 1):
            word.append(up[0])
            k = perms[up[0]][k]
        return k, word

    ordered = swap_stable = 0
    for theta, fixing in dominant:
        # s_theta = w^-1 s_i w, for a word w lowering theta to alpha_i
        k, w = theta, list(range(half))
        while height[k] > 1:
            i = steps(k, -1)[0]
            k = perms[i][k]
            w = [plane_perms[i][x] for x in w]
        i = steps(k, -1)[0]
        w_inverse = [0] * half
        for x, y in enumerate(w):
            w_inverse[y] = x
        s_theta = [w_inverse[plane_perms[i][y]] for y in w]
        h_theta = theta - half
        check(s_theta[h_theta] == h_theta, f"s_theta moves the hyperplane of theta in {t}")
        label, firsts = _orbits(half, [plane_perms[i] for i in fixing] + [s_theta])
        ordered += len(firsts) - 1
        for beta in firsts:
            if beta == h_theta:
                continue
            top, u = climb(beta + half)
            if top != theta:
                continue
            # (H_theta, H_beta) swapped and moved by u is (H_theta, u H_theta)
            image = h_theta
            for i in u:
                image = plane_perms[i][image]
            swap_stable += label[image] == label[beta]
    check((ordered + swap_stable) % 2 == 0,
          f"O + F = {ordered} + {swap_stable} is odd for {t}")
    return m, (ordered + swap_stable) // 2


def ordered_root_pair_orbit_count(t: DynkinType) -> int:
    """Number of W-orbits on Phi x Phi under the diagonal action.

    Reported alongside the distinct-hyperplane-pair count; the two differ
    because each hyperplane carries two roots and the diagonal contributes
    orbits of its own.

    Every orbit of pairs has a representative (theta, beta) with theta the
    one dominant root of its W-orbit, unique up to Stab_W(theta) acting on
    beta, so the count is a sum of parabolic orbit counts on Phi, one per
    dominant root.
    """
    perms = _root_permutations(t)
    height = _heights(t)
    return sum(len(_orbits(len(height), [perms[i] for i in fixing])[1])
               for _, fixing in _dominant_roots(t, height))


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
    label, firsts = _orbits(n_roots, [c])
    lengths = [0] * len(firsts)
    for x in label:
        lengths[x] += 1
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
        check(rest % d == 0, f"the traces of a Coxeter element of {t} give "
              f"x^{d} - 1 the multiplicity {rest}/{d}, not an integer")
        b[d] = rest // d
    for k in range(1, h + 1):
        expected = sum(d * b[d] for d in divisors if k % d == 0)
        check(traces[k] == expected, f"a Coxeter element of {t} has tr(c^{k}) = "
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
