"""Tiny exact linear algebra helpers over the integers and rationals.

Everything here works on plain ints or fractions.Fraction and never rounds;
on ints it stays in ints.  Matrices are tuples of row tuples; vectors and
matrices are 3 wide except in nullspace, so naive algorithms are the right
tool.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Number = int | Fraction


def det3(m: Sequence[Sequence[Number]]) -> Number:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def cross(u: Sequence[Number], v: Sequence[Number]) -> tuple[Number, Number, Number]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u: Sequence[Number], v: Sequence[Number]) -> Number:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def mat_vec(m: Sequence[Sequence[Number]], v: Sequence[Number]) -> tuple[Number, Number, Number]:
    x, y, z = v
    return tuple(a * x + b * y + c * z for a, b, c in m)


def vec_mat(v: Sequence[Number], m: Sequence[Sequence[Number]]) -> tuple[Number, Number, Number]:
    x, y, z = v
    return tuple(x * a + y * b + z * c for a, b, c in zip(*m))


def nullspace(rows: Sequence[Sequence[Number]]) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace of a small matrix, as Fraction tuples."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    work = [[Fraction(x) for x in row] for row in rows]
    pivot_col_of_row: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivot_col_of_row.append(col)
        r += 1
        if r == nrows:
            break
    pivot_cols = set(pivot_col_of_row)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, pcol in enumerate(pivot_col_of_row):
            vec[pcol] = -work[row_idx][free]
        basis.append(tuple(vec))
    return basis


def adjugate3(m: Sequence[Sequence[Number]]) -> tuple[tuple[Number, ...], ...]:
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )

