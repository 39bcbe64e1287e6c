"""Exact inverse of a small integer matrix, read off its Smith form.

All that is left of the rational layer: `groupclass.pairing` reads
<omega_i, omega_j^vee> off the inverse Cartan matrix.  The only elimination
is `finabel.smith_normal_form`'s, on integers throughout; the only
`Fraction`s are the entries of the result.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Sequence

from .finabel import smith_normal_form

Matrix = tuple[tuple[Fraction, ...], ...]


class LinAlgError(ValueError):
    pass


def invert(a: Sequence[Sequence[int]]) -> Matrix:
    """A^-1 for a square integer matrix A.

    With U A V = S = diag(d_1, ..., d_n) and d_k | e = d_n, A^-1 = V S^-1 U
    has entry (i, j) = sum_k V[i][k] U[k][j] (e / d_k) / e: an integer sum
    and one `Fraction` per entry.  A zero d_k means A is singular.
    """
    s, u, v, _ = smith_normal_form([[index(x) for x in row] for row in a])
    d = [s[k][k] for k in range(len(s))]
    if not all(d):
        raise LinAlgError("matrix is singular")
    e = d[-1] if d else 1
    vs = [[x * (e // dk) for x, dk in zip(row, d)] for row in v]
    return tuple(tuple(Fraction(sum(x * y for x, y in zip(row, col)), e) for col in zip(*u))
                 for row in vs)
