"""Exact affine maps of the rational plane and their fixed point structure.

An affine map is stored as a 3x3 integer matrix acting on Cartesian
homogeneous coordinates, with bottom row (0, 0, k), k > 0, and coprime
entries; this representation is unique, so map equality is entrywise
equality.  Applying, composing and inverting stay in integers; the rational
2x2 linear part m and translation t are derived on demand.  The map acts on
infinite points through its linear part, so the line at infinity is always
preserved.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _linalg
from .errors import (
    CollinearSource,
    CollinearTarget,
    InfiniteCenter,
    InfiniteInput,
)
from .projective import HLine, HPoint, _column_matrix

Mat2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
Vec2 = tuple[Fraction, Fraction]
Mat3 = tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]


@dataclass(frozen=True, repr=False)
class AffineMap:
    """x -> m x + t on Cartesian coordinates, held as the integer matrix
    ((a, b, c), (d, e, f), (0, 0, k)) = k [[m, t], [0, 1]]."""

    matrix: Mat3

    def __init__(self, m: Sequence[Sequence[int | Fraction]], t: Sequence[int | Fraction]):
        entries = [Fraction(v) for v in (*m[0], t[0], *m[1], t[1])]
        k = math.lcm(*(v.denominator for v in entries))
        a, b, c, d, e, f = (v.numerator * (k // v.denominator) for v in entries)
        object.__setattr__(self, "matrix", _reduced(a, b, c, d, e, f, k))

    @classmethod
    def _of(cls, a: int, b: int, c: int, d: int, e: int, f: int, k: int) -> "AffineMap":
        """The map with integer matrix ((a, b, c), (d, e, f), (0, 0, k)), k != 0."""
        f_map = object.__new__(cls)
        if k < 0:
            a, b, c, d, e, f, k = -a, -b, -c, -d, -e, -f, -k
        object.__setattr__(f_map, "matrix", _reduced(a, b, c, d, e, f, k))
        return f_map

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls._of(1, 0, 0, 0, 1, 0, 1)

    @property
    def m(self) -> Mat2:
        (a, b, _), (d, e, _), (_, _, k) = self.matrix
        return (Fraction(a, k), Fraction(b, k)), (Fraction(d, k), Fraction(e, k))

    @property
    def t(self) -> Vec2:
        (_, _, c), (_, _, f), (_, _, k) = self.matrix
        return Fraction(c, k), Fraction(f, k)

    def __repr__(self) -> str:
        return f"AffineMap(m={self.m!r}, t={self.t!r})"

    def apply(self, p: HPoint) -> HPoint:
        """Image of a projective point; infinite points map by the linear part."""
        (a, b, c), (d, e, f), (_, _, k) = self.matrix
        x, y, z = p.coords
        return HPoint(a * x + b * y + c * z, d * x + e * y + f * z, k * z)

    def apply_line(self, l: HLine) -> HLine:
        """Image line: the coefficient row times the adjugate, hence exact."""
        return HLine(*_linalg.vec_mat(l.coeffs, self._adjugate()))

    def _adjugate(self) -> Mat3:
        (a, b, _), (d, e, _), _ = self.matrix
        if a * e - b * d == 0:
            raise CollinearTarget("affine map not invertible")
        return _linalg.adjugate3(self.matrix)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        (a, b, c), (d, e, f), (_, _, k) = self.matrix
        (p, q, r), (s, u, v), (_, _, w) = other.matrix
        return AffineMap._of(a * p + b * s, a * q + b * u, a * r + b * v + c * w,
                             d * p + e * s, d * q + e * u, d * r + e * v + f * w,
                             k * w)

    def invert(self) -> "AffineMap":
        (a, b, c), (d, e, f), (_, _, k) = self._adjugate()
        return AffineMap._of(a, b, c, d, e, f, k)


def _reduced(a: int, b: int, c: int, d: int, e: int, f: int, k: int) -> Mat3:
    # k > 0, so dividing by the positive gcd leaves the form canonical
    g = math.gcd(a, b, c, d, e, f, k)
    return (a // g, b // g, c // g), (d // g, e // g, f // g), (0, 0, k // g)


def from_correspondence(src: Sequence[HPoint], dst: Sequence[HPoint]) -> AffineMap:
    """The unique affine map sending three ordinary points to three others.

    Both triples must be non-collinear; the resulting map is invertible.
    """
    if len(src) != 3 or len(dst) != 3:
        raise CollinearSource("need exactly three source and target points")
    for p in (*src, *dst):
        if p.is_infinite:
            raise InfiniteInput(f"correspondence point {p} is infinite")
    s = _column_matrix(src)
    if _linalg.det3(s) == 0:
        raise CollinearSource(f"source points {src} collinear")
    d = _column_matrix(dst)
    if _linalg.det3(d) == 0:
        raise CollinearTarget(f"target points {dst} collinear")
    # d s^-1 up to scale: both column sets share a last coordinate, so the
    # bottom row of the product is (0, 0, k) exactly
    adj = _linalg.adjugate3(s)
    (a, b, c), (e, f, g), (_, _, k) = (_linalg.vec_mat(row, adj) for row in d)
    return AffineMap._of(a, b, c, e, f, g, k)


def homothety(center: HPoint, ratio: int | Fraction) -> AffineMap:
    """Scaling by ratio about an ordinary center (ratio -1 is the half turn)."""
    if center.is_infinite:
        raise InfiniteCenter(f"homothety center {center} is infinite")
    r = Fraction(ratio)
    p, q = r.numerator, r.denominator
    cx, cy, cz = center.coords
    return AffineMap._of(p * cz, 0, (q - p) * cx, 0, p * cz, (q - p) * cy, q * cz)


def half_turn(center: HPoint) -> AffineMap:
    """Point reflection about an ordinary center; an exact involution."""
    if center.is_infinite:
        raise InfiniteCenter(f"half turn center {center} is infinite")
    return homothety(center, -1)


class FixedPointKind(enum.Enum):
    IDENTITY = "IDENTITY"
    UNIQUE_POINT = "UNIQUE_POINT"
    LINE_OF_FIXED_POINTS = "LINE_OF_FIXED_POINTS"
    NO_ORDINARY_FIXED_POINT = "NO_ORDINARY_FIXED_POINT"


@dataclass(frozen=True)
class FixedPointStructure:
    """Complete exact fixed point data of an affine map.

    point is set for UNIQUE_POINT, line for LINE_OF_FIXED_POINTS.  The
    infinite fixed points are the rational eigendirections of the linear
    part (every one of them, when the whole line at infinity is fixed,
    signalled by all_infinite_points_fixed).  irrational_directions_exist
    reports real eigendirections that leave the rational field.
    """

    kind: FixedPointKind
    point: HPoint | None
    line: HLine | None
    infinite_fixed_directions: tuple[tuple[HPoint, Fraction], ...]
    all_infinite_points_fixed: bool
    irrational_directions_exist: bool


def _eigendirections(f: AffineMap) -> tuple[tuple[tuple[HPoint, Fraction], ...], bool, bool]:
    """Rational eigendirections of the linear part, as infinite points."""
    (a, b, _), (d, e, _), (_, _, k) = f.matrix
    # eigenvalues of the integer block are (tr +- root) / 2; of m, over k more
    tr = a + e
    disc = tr * tr - 4 * (a * e - b * d)
    if disc < 0:
        return (), False, False
    root = math.isqrt(disc)
    if root * root != disc:
        return (), False, True
    directions: list[tuple[HPoint, Fraction]] = []
    for twice in sorted({tr + root, tr - root}):
        # twice the integer block minus twice the eigenvalue
        p, q = 2 * a - twice, 2 * b
        r, s = 2 * d, 2 * e - twice
        if p == 0 and q == 0 and r == 0 and s == 0:
            return (), True, False  # scalar matrix: every direction is fixed
        if p != 0 or q != 0:
            vec = (q, -p)
        else:
            vec = (s, -r)
        directions.append((HPoint(vec[0], vec[1], 0), Fraction(twice, 2 * k)))
    return tuple(directions), False, False


def fixed_points(f: AffineMap) -> FixedPointStructure:
    """Exact classification of the fixed locus of an affine map."""
    directions, all_inf, irrational = _eigendirections(f)
    # ordinary fixed points solve rows . (x, y, 1) = 0 for both rows of M - k I
    (a, b, c), (d, e, g), (_, _, k) = f.matrix
    first, second = (a - k, b, c), (d, e - k, g)
    meet = _linalg.cross(first, second)
    if meet[2] != 0:
        return FixedPointStructure(
            FixedPointKind.UNIQUE_POINT, HPoint(*meet), None,
            directions, all_inf, irrational)
    if first[:2] == (0, 0) and second[:2] == (0, 0):
        if c == 0 and g == 0:
            return FixedPointStructure(
                FixedPointKind.IDENTITY, None, None, directions, True, False)
        return FixedPointStructure(
            FixedPointKind.NO_ORDINARY_FIXED_POINT, None, None,
            directions, True, False)
    # rank one linear part: the fixed points form a line exactly when the
    # two equations are proportional
    if meet == (0, 0, 0):
        line = HLine(*(first if first[:2] != (0, 0) else second))
        return FixedPointStructure(
            FixedPointKind.LINE_OF_FIXED_POINTS, None, line,
            directions, all_inf, irrational)
    return FixedPointStructure(
        FixedPointKind.NO_ORDINARY_FIXED_POINT, None, None,
        directions, all_inf, irrational)


class MapShape(enum.Enum):
    HOMOTHETY = "HOMOTHETY"
    TRANSLATION = "TRANSLATION"
    OTHER = "OTHER"


@dataclass(frozen=True)
class HomothetyClassification:
    shape: MapShape
    center: HPoint | None = None
    ratio: Fraction | None = None
    direction: HPoint | None = None


def classify_homothety(f: AffineMap) -> HomothetyClassification:
    """Detect scalar linear part: homothety (ratio != 1), translation, or other.

    The identity map is OTHER: it is neither a proper homothety nor a
    proper translation.
    """
    (a, b, c), (d, e, f_), (_, _, k) = f.matrix
    if b != 0 or d != 0 or a != e:
        return HomothetyClassification(MapShape.OTHER)
    if a == k:
        if c == 0 and f_ == 0:
            return HomothetyClassification(MapShape.OTHER)
        return HomothetyClassification(
            MapShape.TRANSLATION, direction=HPoint(c, f_, 0))
    return HomothetyClassification(
        MapShape.HOMOTHETY, center=HPoint(c, f_, k - a), ratio=Fraction(a, k))
