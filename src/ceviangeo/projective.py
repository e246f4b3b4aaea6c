"""Exact homogeneous coordinates for the rational projective plane.

Points and lines are coprime integer triples with the first nonzero entry
positive, so projective equality is plain tuple equality and hashing is free.
The line at infinity is (0 : 0 : 1) in line coordinates; a point is infinite
exactly when its last coordinate vanishes.  No operation in this module ever
leaves the rational field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import _linalg
from .errors import (
    DegenerateInput,
    IdenticalLines,
    IdenticalPoints,
    InfiniteInput,
    NotCollinear,
    UndefinedRatio,
)

Scalar = Fraction


def _canonical(x: int | Fraction, y: int | Fraction, z: int | Fraction) -> tuple[int, int, int]:
    """Scale a rational triple to coprime ints, first nonzero entry positive.

    Integer input, the common case, never goes through Fraction.
    """
    if type(x) is not int or type(y) is not int or type(z) is not int:
        fx, fy, fz = Fraction(x), Fraction(y), Fraction(z)
        scale = math.lcm(fx.denominator, fy.denominator, fz.denominator)
        x = fx.numerator * (scale // fx.denominator)
        y = fy.numerator * (scale // fy.denominator)
        z = fz.numerator * (scale // fz.denominator)
    g = math.gcd(x, y, z)
    if g == 0:
        raise DegenerateInput("zero homogeneous triple")
    if x < 0 or (x == 0 and (y < 0 or (y == 0 and z < 0))):
        g = -g
    return x // g, y // g, z // g


@dataclass(frozen=True)
class HPoint:
    """A projective point (x : y : z), canonicalized at construction."""

    coords: tuple[int, int, int]

    def __init__(self, x: int | Fraction, y: int | Fraction, z: int | Fraction):
        object.__setattr__(self, "coords", _canonical(x, y, z))

    @classmethod
    def from_xy(cls, x: int | Fraction, y: int | Fraction) -> "HPoint":
        return cls(x, y, 1)

    @property
    def is_infinite(self) -> bool:
        return self.coords[2] == 0

    def to_xy(self) -> tuple[Fraction, Fraction]:
        x, y, z = self.coords
        if z == 0:
            raise InfiniteInput(f"no Cartesian coordinates for {self}")
        return Fraction(x, z), Fraction(y, z)

    def __repr__(self) -> str:
        return "({} : {} : {})".format(*self.coords)


@dataclass(frozen=True)
class HLine:
    """A projective line l*x + m*y + n*z = 0, canonicalized at construction."""

    coeffs: tuple[int, int, int]

    def __init__(self, l: int | Fraction, m: int | Fraction, n: int | Fraction):
        object.__setattr__(self, "coeffs", _canonical(l, m, n))

    @property
    def is_line_at_infinity(self) -> bool:
        return self.coeffs[0] == 0 and self.coeffs[1] == 0

    def contains(self, p: HPoint) -> bool:
        return _linalg.dot(self.coeffs, p.coords) == 0

    def __repr__(self) -> str:
        return "[{} : {} : {}]".format(*self.coeffs)


LINE_AT_INFINITY = HLine(0, 0, 1)


def _column_matrix(points: Sequence[HPoint]) -> tuple[tuple[int, ...], ...]:
    """Integer 3x3 matrix whose columns are three ordinary points, scaled to
    one common last coordinate so that equal weights mean equal masses."""
    common = math.lcm(*(p.coords[2] for p in points))
    cols = [tuple(c * (common // p.coords[2]) for c in p.coords) for p in points]
    return tuple(tuple(col[i] for col in cols) for i in range(3))


def join(p: HPoint, q: HPoint) -> HLine:
    """Line through two distinct points."""
    if p == q:
        raise IdenticalPoints(f"join undefined for {p} = {q}")
    return HLine(*_linalg.cross(p.coords, q.coords))


def meet(k: HLine, l: HLine) -> HPoint:
    """Common point of two distinct lines; infinite when they are parallel."""
    if k == l:
        raise IdenticalLines(f"meet undefined for {k} = {l}")
    return HPoint(*_linalg.cross(k.coeffs, l.coeffs))


def parallel(k: HLine, l: HLine) -> bool:
    """True when the lines meet on the line at infinity (or coincide)."""
    return k.coeffs[0] * l.coeffs[1] - k.coeffs[1] * l.coeffs[0] == 0


def _rank_at_most_two(rows: Sequence[tuple[int, int, int]]) -> bool:
    # Rows are canonical, so two of them are independent exactly when they
    # differ; every row must then be orthogonal to the cross of those two.
    first = rows[0]
    other = next((r for r in rows if r != first), None)
    if other is None:
        return True
    normal = _linalg.cross(first, other)
    return all(_linalg.dot(normal, r) == 0 for r in rows)


def collinear(points: Iterable[HPoint]) -> bool:
    """True when all points lie on one common line (vacuous below three)."""
    rows = [p.coords for p in points]
    return len(rows) < 3 or _rank_at_most_two(rows)


def concurrent(lines: Iterable[HLine]) -> bool:
    """True when all lines pass through one common point (vacuous below three)."""
    rows = [l.coeffs for l in lines]
    return len(rows) < 3 or _rank_at_most_two(rows)


def _drop_coordinate(line: HLine) -> int:
    # Projection forgetting coordinate k is injective on the line iff the
    # k-th line coefficient is nonzero; take the largest for good measure.
    coeffs = line.coeffs
    return max(range(3), key=lambda i: abs(coeffs[i]))


def _project(p: HPoint, k: int) -> tuple[int, int]:
    kept = [c for i, c in enumerate(p.coords) if i != k]
    return kept[0], kept[1]


def _common_line(points: Sequence[HPoint]) -> HLine:
    base = points[0]
    other = next((p for p in points[1:] if p != base), None)
    if other is None:
        raise UndefinedRatio("all points coincide")
    line = join(base, other)
    if not all(line.contains(p) for p in points):
        raise NotCollinear(f"points {points} not collinear")
    return line


def cross_ratio(a: HPoint, b: HPoint, c: HPoint, d: HPoint) -> Scalar:
    """Cross ratio (a, b; c, d) of four collinear points.

    Computed on a rational parametrization of the common line obtained by
    dropping the coordinate with the largest line coefficient.  Raises
    UndefinedRatio for the degenerate pairings a = b, c = d and for the
    infinite values (b = c or a = d); the value 0 (a = c or b = d) is legal.
    """
    line = _common_line((a, b, c, d))
    if a == b or c == d:
        raise UndefinedRatio("cross ratio undefined for coincident base pair")
    k = _drop_coordinate(line)
    ua, ub, uc, ud = (_project(p, k) for p in (a, b, c, d))
    d2 = lambda u, v: u[0] * v[1] - u[1] * v[0]
    denom = d2(ub, uc) * d2(ua, ud)
    if denom == 0:
        raise UndefinedRatio("infinite cross ratio")
    return Fraction(d2(ua, uc) * d2(ub, ud), denom)


def harmonic_conjugate(a: HPoint, b: HPoint, c: HPoint) -> HPoint:
    """The point d with cross ratio (a, b; c, d) = -1.

    c must differ from a and b; when c is the midpoint of ordinary a, b the
    conjugate is the infinite point of the line.  Involutive in c <-> d.
    """
    if a == b:
        raise DegenerateInput("harmonic conjugate needs distinct base points")
    if c == a or c == b:
        raise DegenerateInput("harmonic conjugate undefined at a base point")
    line = _common_line((a, b, c))
    k = _drop_coordinate(line)
    (a0, a1), (b0, b1), (c0, c1) = _project(a, k), _project(b, k), _project(c, k)
    # c = alpha a + beta b by Cramer, both scaled by the nonzero determinant
    # a0 b1 - a1 b0 (a != b on the line, so the basis is independent)
    alpha = c0 * b1 - c1 * b0
    beta = a0 * c1 - a1 * c0
    return HPoint(*(alpha * pa - beta * pb for pa, pb in zip(a.coords, b.coords)))


def signed_ratio(a: HPoint, b: HPoint, c: HPoint) -> Scalar:
    """Division ratio r with c = (a + r*b) / (1 + r) for ordinary collinear points.

    r is the signed ratio in which c divides the segment from a to b: the
    midpoint gives 1, points outside the segment give negative values.
    """
    for p in (a, b, c):
        if p.is_infinite:
            raise InfiniteInput(f"signed ratio needs ordinary points, got {p}")
    if a == b or c == b:
        raise UndefinedRatio("signed ratio degenerate: coincident bounds")
    if not collinear((a, b, c)):
        raise NotCollinear(f"{a}, {b}, {c} not collinear")
    ax, ay = a.to_xy()
    bx, by = b.to_xy()
    cx, cy = c.to_xy()
    if bx != cx:
        return Fraction(cx - ax) / (bx - cx)
    return Fraction(cy - ay) / (by - cy)


def midpoint(a: HPoint, b: HPoint) -> HPoint:
    """Midpoint of two ordinary points; midpoint(a, a) = a."""
    ax, ay, az = a.coords
    bx, by, bz = b.coords
    if az == 0 or bz == 0:
        raise InfiniteInput("midpoint needs ordinary points")
    return HPoint(ax * bz + bx * az, ay * bz + by * az, 2 * az * bz)
