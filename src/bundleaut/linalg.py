"""The inverse of a square integer matrix as an integer matrix and a scale.

All that is left of the rational layer: `groupclass.type_lattices` reads
the pairing <omega_i, omega_j^vee> off N = e A^-1 for the Cartan matrix A.
The elimination is `finabel.smith_normal_form`'s, done once by the caller;
this module only multiplies its U and V.  No rational arithmetic and no
floating point anywhere.
"""

from __future__ import annotations

IntMatrix = list[list[int]]


class LinAlgError(ValueError):
    pass


def scaled_inverse(smith) -> tuple[IntMatrix, int]:
    """(N, e) with N = e A^-1 for the Smith form (S, U, V, V^-1) of a square
    matrix A, e = d_n its last invariant factor.

    U A V = S = diag(d_1, ..., d_n) with d_k | e gives e A^-1 =
    V diag(e / d_k) U, whose entry (i, j) is the integer sum
    sum_k V[i][k] (e / d_k) U[k][j].  A zero d_k means A is singular.  The
    row and column operations never turn an entry that is not an `int` into
    one, so such an entry of A leaves one in S, which raises `TypeError`.
    """
    s, u, v, _ = smith
    if not all(isinstance(x, int) for row in s for x in row):
        raise TypeError("matrix entries must be integers")
    d = [s[k][k] for k in range(len(s))]
    if not all(d):
        raise LinAlgError("matrix is singular")
    e = d[-1] if d else 1
    vs = [[x * (e // dk) for x, dk in zip(row, d)] for row in v]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*u)] for row in vs], e
