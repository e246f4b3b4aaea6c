"""Reference triangle frame: barycentric coordinates and cevian machinery.

Barycentric triples get their own type so they can never be confused with
Cartesian homogeneous triples; conversion always happens against an explicit
Triangle.  A point is ordinary in barycentrics exactly when its coordinate
sum is nonzero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import _linalg
from .errors import (
    DegeneratePerspector,
    DegenerateTriangle,
    InfiniteInput,
    PointOnSideline,
)
from .projective import HLine, HPoint, join, meet, midpoint, _canonical, _column_matrix


@dataclass(frozen=True)
class Bary:
    """Homogeneous barycentric coordinates (u : v : w), canonicalized."""

    coords: tuple[int, int, int]

    def __init__(self, u: int | Fraction, v: int | Fraction, w: int | Fraction):
        object.__setattr__(self, "coords", _canonical(u, v, w))

    @property
    def is_infinite(self) -> bool:
        return sum(self.coords) == 0

    def __repr__(self) -> str:
        return "({} : {} : {})b".format(*self.coords)


def dist2(p: HPoint, q: HPoint) -> Fraction:
    """Squared Euclidean distance between ordinary points."""
    px, py, pz = p.coords
    qx, qy, qz = q.coords
    if pz == 0 or qz == 0:
        raise InfiniteInput(f"no Cartesian coordinates for {p if pz == 0 else q}")
    dx, dy = px * qz - qx * pz, py * qz - qy * pz
    return Fraction(dx * dx + dy * dy, (pz * qz) ** 2)


@dataclass(frozen=True)
class Triangle:
    """Ordered vertices A, B, C; ordinary, distinct, non-collinear."""

    A: HPoint
    B: HPoint
    C: HPoint

    def __post_init__(self):
        for v in (self.A, self.B, self.C):
            if v.is_infinite:
                raise DegenerateTriangle(f"vertex {v} is infinite")
        if _linalg.det3((self.A.coords, self.B.coords, self.C.coords)) == 0:
            raise DegenerateTriangle("vertices collinear or coincident")

    @classmethod
    def from_xy(cls, a: Sequence[int | Fraction], b: Sequence[int | Fraction],
                c: Sequence[int | Fraction]) -> "Triangle":
        return cls(HPoint(a[0], a[1], 1), HPoint(b[0], b[1], 1), HPoint(c[0], c[1], 1))

    @property
    def vertices(self) -> tuple[HPoint, HPoint, HPoint]:
        return self.A, self.B, self.C

    @cached_property
    def a2(self) -> Fraction:
        return dist2(self.B, self.C)

    @cached_property
    def b2(self) -> Fraction:
        return dist2(self.C, self.A)

    @cached_property
    def c2(self) -> Fraction:
        return dist2(self.A, self.B)

    @cached_property
    def sides(self) -> tuple[HLine, HLine, HLine]:
        """Side lines opposite A, B, C in that order."""
        return join(self.B, self.C), join(self.C, self.A), join(self.A, self.B)

    @cached_property
    def centroid(self) -> HPoint:
        return bary_to_point(self, Bary(1, 1, 1))

    @cached_property
    def _vertex_matrix(self) -> tuple[tuple[int, ...], ...]:
        # maps barycentric to Cartesian homogeneous coordinates
        return _column_matrix(self.vertices)

    @cached_property
    def _vertex_matrix_inv(self) -> tuple[tuple[int, ...], ...]:
        # The adjugate: the inverse up to a projective scale, and integer.
        return _linalg.adjugate3(self._vertex_matrix)


def point_to_bary(t: Triangle, p: HPoint) -> Bary:
    """Barycentric coordinates of any projective point (ordinary or infinite)."""
    return Bary(*_linalg.mat_vec(t._vertex_matrix_inv, p.coords))


def bary_to_point(t: Triangle, b: Bary) -> HPoint:
    """Projective point with the given barycentrics; infinite iff u+v+w = 0."""
    return HPoint(*_linalg.mat_vec(t._vertex_matrix, b.coords))


class Degeneracy(enum.Enum):
    ON_SIDELINE = "ON_SIDELINE"
    ON_ANTICOMPLEMENTARY_SIDE = "ON_ANTICOMPLEMENTARY_SIDE"
    ON_MEDIAN = "ON_MEDIAN"
    ON_STEINER = "ON_STEINER"
    AT_INFINITY = "AT_INFINITY"
    IS_VERTEX = "IS_VERTEX"
    IS_CENTROID = "IS_CENTROID"


def classify_point(t: Triangle, p: HPoint) -> frozenset[Degeneracy]:
    """Exact degeneracy flags of p relative to t (empty set means generic)."""
    u, v, w = point_to_bary(t, p).coords
    flags = set()
    if u == 0 or v == 0 or w == 0:
        flags.add(Degeneracy.ON_SIDELINE)
    if u + v == 0 or v + w == 0 or w + u == 0:
        flags.add(Degeneracy.ON_ANTICOMPLEMENTARY_SIDE)
    if u == v or v == w or w == u:
        flags.add(Degeneracy.ON_MEDIAN)
    if u * v + v * w + w * u == 0:
        flags.add(Degeneracy.ON_STEINER)
    if u + v + w == 0:
        flags.add(Degeneracy.AT_INFINITY)
    if (u, v, w).count(0) == 2:
        flags.add(Degeneracy.IS_VERTEX)
    if u == v == w:
        flags.add(Degeneracy.IS_CENTROID)
    return frozenset(flags)


def cevian_triangle(t: Triangle, p: HPoint) -> tuple[HPoint, HPoint, HPoint]:
    """Traces (D, E, F) of the cevians through p on BC, CA, AB.

    p may be infinite but must avoid the side lines (vertices included).
    A trace is infinite exactly when the cevian is parallel to its side,
    i.e. when p lies on the matching anticomplementary side line.
    """
    u, v, w = point_to_bary(t, p).coords
    if u == 0 or v == 0 or w == 0:
        raise PointOnSideline(f"cevian triangle undefined: {p} on a side line of {t}")
    side_a, side_b, side_c = t.sides
    d = meet(join(t.A, p), side_a)
    e = meet(join(t.B, p), side_b)
    f = meet(join(t.C, p), side_c)
    return d, e, f


def anticevian_triangle(t: Triangle, q: HPoint) -> tuple[HPoint, HPoint, HPoint]:
    """Vertices (A', B', C') of the triangle having ABC as cevian triangle of q.

    In barycentrics for q = (x : y : z) these are (-x : y : z), (x : -y : z),
    (x : y : -z).  q must avoid the side lines; it may be infinite, in which
    case all three vertices are still ordinary.
    """
    x, y, z = point_to_bary(t, q).coords
    if x == 0 or y == 0 or z == 0:
        raise DegeneratePerspector(f"anticevian triangle undefined: {q} on a side line")
    return (
        bary_to_point(t, Bary(-x, y, z)),
        bary_to_point(t, Bary(x, -y, z)),
        bary_to_point(t, Bary(x, y, -z)),
    )


def medial_and_anticomplementary(t: Triangle) -> tuple[Triangle, Triangle]:
    """The medial triangle (side midpoints) and the anticomplementary triangle.

    Vertex order matches t: the first medial vertex is the midpoint of BC,
    the first anticomplementary vertex is the reflection image B + C - A.
    """
    medial = Triangle(midpoint(t.B, t.C), midpoint(t.C, t.A), midpoint(t.A, t.B))
    anti = Triangle(*anticevian_triangle(t, t.centroid))
    return medial, anti


def trilinear_polar(t: Triangle, p: HPoint) -> HLine:
    """Axis of perspectivity of t and the cevian triangle of p."""
    d, e, f = cevian_triangle(t, p)
    side_a, side_b, side_c = t.sides
    pts = [meet(join(e, f), side_a), meet(join(f, d), side_b), meet(join(d, e), side_c)]
    first = pts[0]
    second = next((q for q in pts[1:] if q != first), None)
    if second is None:
        raise DegeneratePerspector("trilinear polar collapses to a point")
    return join(first, second)
