"""Exact inverse of a small integer matrix.

All that is left of the rational layer: `groupclass.pairing` reads
<omega_i, omega_j^vee> off the inverse Cartan matrix.  The elimination is
fraction-free (Bareiss), on integers throughout; the only `Fraction`s are
the entries of the result.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]


class LinAlgError(ValueError):
    pass


def invert(a: Sequence[Sequence[int]]) -> Matrix:
    """A^-1 for a square integer matrix A.

    Fraction-free Gauss-Jordan elimination of [A | I]: each step
    cross-multiplies by the pivot and divides exactly by the previous pivot
    (Bareiss), so every entry stays an integer minor of [A | I].  It ends
    at [d I | d A^-1] with d = +-det A, and A^-1 is read off the right half
    divided by d.
    """
    n = len(a)
    rows = [[index(x) for x in row] + [int(i == j) for j in range(n)]
            for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            raise LinAlgError("matrix is singular")
        rows[k], rows[p] = rows[p], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(rows[i], pivot_row)]
        prev = pivot
    return tuple(tuple(Fraction(x, prev) for x in row[n:]) for row in rows)
