"""Exact conics: five-point construction, circles, inscribed conics, pole/polar.

A conic is a symmetric integer 3x3 matrix acting on Cartesian homogeneous
coordinates, canonicalized like a projective triple (coprime entries, first
nonzero entry positive).  Kind classification uses exact matrix invariants,
never discriminants of floating point arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _linalg
from .errors import (
    BadParameter,
    CollinearPoints,
    DegenerateConic,
    InfiniteInput,
    UnderDetermined,
)
from .projective import HLine, HPoint
from .triangle import Bary, Triangle, bary_to_point, cevian_triangle, point_to_bary


class ConicKind(enum.Enum):
    CIRCLE = "CIRCLE"
    ELLIPSE = "ELLIPSE"
    PARABOLA = "PARABOLA"
    HYPERBOLA = "HYPERBOLA"
    DEGENERATE = "DEGENERATE"


def _canonical_sym(entries: Sequence[Fraction | int]) -> tuple[int, ...]:
    # entries = (m00, m01, m02, m11, m12, m22) of the symmetric matrix
    ints = list(entries)
    if not all(type(e) is int for e in ints):
        fracs = [Fraction(e) for e in entries]
        scale = math.lcm(*(f.denominator for f in fracs))
        ints = [f.numerator * (scale // f.denominator) for f in fracs]
    g = math.gcd(*ints)
    if g == 0:
        raise DegenerateConic("zero conic matrix")
    ints = [n // g for n in ints]
    first = next(n for n in ints if n != 0)
    if first < 0:
        ints = [-n for n in ints]
    return tuple(ints)


@dataclass(frozen=True)
class Conic:
    """Symmetric matrix [[m00, m01, m02], [m01, m11, m12], [m02, m12, m22]]."""

    entries: tuple[int, int, int, int, int, int]

    def __init__(self, m00, m01, m02, m11, m12, m22):
        object.__setattr__(self, "entries", _canonical_sym((m00, m01, m02, m11, m12, m22)))

    @property
    def matrix(self) -> tuple[tuple[int, int, int], ...]:
        m00, m01, m02, m11, m12, m22 = self.entries
        return ((m00, m01, m02), (m01, m11, m12), (m02, m12, m22))

    def contains(self, p: HPoint) -> bool:
        v = p.coords
        return _linalg.dot(v, _linalg.mat_vec(self.matrix, v)) == 0

    def residue(self, p: HPoint) -> int:
        """Exact value of the quadratic form at p's canonical coordinates."""
        v = p.coords
        return _linalg.dot(v, _linalg.mat_vec(self.matrix, v))

    @property
    def kind(self) -> ConicKind:
        m = self.matrix
        if _linalg.det3(m) == 0:
            return ConicKind.DEGENERATE
        minor = m[0][0] * m[1][1] - m[0][1] ** 2
        if minor > 0:
            if m[0][0] == m[1][1] and m[0][1] == 0:
                return ConicKind.CIRCLE
            return ConicKind.ELLIPSE
        if minor == 0:
            return ConicKind.PARABOLA
        return ConicKind.HYPERBOLA

    def __repr__(self) -> str:
        return f"Conic{self.entries}"


def _conic_from_matrix(m: Sequence[Sequence[Fraction | int]]) -> Conic:
    return Conic(m[0][0], m[0][1], m[0][2], m[1][1], m[1][2], m[2][2])


def conic_through_five(points: Sequence[HPoint]) -> Conic:
    """The unique conic through five points in general position.

    Solves the homogeneous 5x6 system exactly; a nullspace of dimension
    other than one (repeated points, four on a line) raises UnderDetermined.
    """
    if len(points) != 5:
        raise BadParameter(f"need exactly five points, got {len(points)}")
    rows = []
    for p in points:
        x, y, z = p.coords
        rows.append((x * x, y * y, z * z, y * z, x * z, x * y))
    basis = _linalg.nullspace(rows)
    if len(basis) != 1:
        raise UnderDetermined(f"conic through {points} not unique (nullspace dim {len(basis)})")
    a, b, c, d, e, f = basis[0]
    return Conic(2 * a, f, e, 2 * b, d, 2 * c)


def circle_through_three(a: HPoint, b: HPoint, c: HPoint) -> Conic:
    """Circle through three ordinary non-collinear points."""
    pts = (a, b, c)
    for p in pts:
        if p.is_infinite:
            raise InfiniteInput(f"circle through infinite point {p}")
    # x^2 + y^2 + D x z + E y z + F z^2 = 0 at each point, solved by Cramer
    rows = [(x * z, y * z, z * z) for x, y, z in (p.coords for p in pts)]
    rhs = tuple(-(x * x + y * y) for x, y, _ in (p.coords for p in pts))
    det = _linalg.det3(rows)
    if det == 0:
        raise CollinearPoints(f"no circle through collinear {pts}")
    cols = tuple(zip(*rows))
    dd, ee, ff = (_linalg.det3(cols[:j] + (rhs,) + cols[j + 1:]) for j in range(3))
    return Conic(2 * det, 0, dd, 2 * det, ee, 2 * ff)


def polar(c: Conic, p: HPoint) -> HLine:
    """Polar line of p; for p on the conic this is the tangent at p."""
    if _linalg.det3(c.matrix) == 0:
        raise DegenerateConic("polar undefined for singular conic")
    return HLine(*_linalg.mat_vec(c.matrix, p.coords))


def pole(c: Conic, l: HLine) -> HPoint:
    """Pole of the line l, the inverse image of l under the polarity."""
    if _linalg.det3(c.matrix) == 0:
        raise DegenerateConic("pole undefined for singular conic")
    adj = _linalg.adjugate3(c.matrix)
    return HPoint(*_linalg.mat_vec(adj, l.coeffs))


def _bary_conic_to_cartesian(t: Triangle, m_bary: Sequence[Sequence[Fraction | int]]) -> Conic:
    # p_cart = V p_bary, so M_cart = V^-T M_bary V^-1
    vinv = t._vertex_matrix_inv
    rows3 = range(3)
    mb_vinv = tuple(
        tuple(sum(m_bary[i][k] * vinv[k][j] for k in rows3) for j in rows3) for i in rows3
    )
    m_cart = tuple(
        tuple(sum(vinv[k][i] * mb_vinv[k][j] for k in rows3) for j in rows3) for i in rows3
    )
    return _conic_from_matrix(m_cart)


def inscribed_conic(t: Triangle, p: HPoint) -> Conic:
    """The conic tangent to the three side lines at the cevian traces of p.

    Tangency is exact: the polar of each trace is the corresponding side
    line.  The pole of the line at infinity (the center, when it exists) is
    the point (u(v+w) : v(w+u) : w(u+v)) in barycentrics.
    """
    u, v, w = point_to_bary(t, p).coords
    cevian_triangle(t, p)  # reuse its side line validation
    m_bary = (
        (v * v * w * w, -u * v * w * w, -u * v * v * w),
        (-u * v * w * w, u * u * w * w, -u * u * v * w),
        (-u * v * v * w, -u * u * v * w, u * u * v * v),
    )
    return _bary_conic_to_cartesian(t, m_bary)


def steiner_circumellipse(t: Triangle) -> Conic:
    """The unique ellipse through the vertices centered at the centroid."""
    m_bary = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    return _bary_conic_to_cartesian(t, m_bary)


def steiner_point_sample(t: Triangle, param: Fraction | int) -> HPoint:
    """Rational parametrization (1 : t : -t/(1+t)) of the circumellipse.

    Any parameter outside {0, -1} yields an ordinary point off the side
    lines and off the anticomplementary side lines.
    """
    param = Fraction(param)
    if param == 0 or param == -1:
        raise BadParameter(f"parameter {param} hits a vertex of the parametrization")
    return bary_to_point(t, Bary(Fraction(1), param, -param / (1 + param)))
