"""Exact rational inverse of a small dense matrix.

All that is left of the rational layer: `groupclass.pairing` reads
<omega_i, omega_j^vee> off the inverse Cartan matrix.  Everything else works
on integer coordinates.  Vectors are tuples of Fraction, matrices tuples of
row tuples; sizes never exceed ~9, so plain Gauss-Jordan elimination is all
we need.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class LinAlgError(ValueError):
    pass


def vector(coords: Iterable) -> Vector:
    return tuple(Fraction(c) for c in coords)


def matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vector(row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def _rref(rows: list[list[Fraction]]) -> list[int]:
    """Reduce in place to reduced row echelon form; return pivot columns."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def invert(a: Sequence[Sequence]) -> Matrix:
    a = matrix(a)
    n = len(a)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(a)]
    pivots = _rref(aug)
    if pivots != list(range(n)):
        raise LinAlgError("matrix is singular")
    return tuple(tuple(aug[i][n:]) for i in range(n))
