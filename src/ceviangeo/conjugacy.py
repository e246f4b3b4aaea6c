"""Conjugation maps of triangle geometry over exact barycentrics.

All maps are anchored to a ConjugacyContext so results can never silently
refer to the wrong triangle.  The cyclocevian map is constructed
synthetically (trace circle, second intersections by Vieta, perspector);
the two composite formulas through isotomic/isogonal conjugation and the
complement are independent routes to the same map and are kept separate on
purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _linalg
from .conic import circle_through_three
from .errors import (
    ChainDegenerate,
    CollinearPoints,
    DegenerateCircle,
    InfiniteInput,
    IsVertex,
    NonConcurrent,
    NotPerspective,
    OnSideline,
)
from .projective import HLine, HPoint, join, meet
from .triangle import (
    Bary,
    Triangle,
    anticevian_triangle,
    bary_to_point,
    cevian_triangle,
    medial_and_anticomplementary,
    point_to_bary,
)


@dataclass(frozen=True)
class ConjugacyContext:
    """A reference triangle with its derived frames and metric."""

    reference: Triangle

    @cached_property
    def medial(self) -> Triangle:
        return medial_and_anticomplementary(self.reference)[0]

    @cached_property
    def anticomplementary(self) -> Triangle:
        return medial_and_anticomplementary(self.reference)[1]

    @property
    def centroid(self) -> HPoint:
        return self.reference.centroid

    @property
    def metric(self) -> tuple[Fraction, Fraction, Fraction]:
        t = self.reference
        return t.a2, t.b2, t.c2

    @cached_property
    def _integer_metric(self) -> tuple[int, int, int]:
        # the squared side lengths up to one common positive scale
        a2, b2, c2 = self.metric
        scale = math.lcm(a2.denominator, b2.denominator, c2.denominator)
        return (a2.numerator * (scale // a2.denominator),
                b2.numerator * (scale // b2.denominator),
                c2.numerator * (scale // c2.denominator))

    def to_bary(self, p: HPoint) -> Bary:
        return point_to_bary(self.reference, p)

    def to_point(self, b: Bary) -> HPoint:
        return bary_to_point(self.reference, b)


def _require_off_sidelines(b: Bary, op: str) -> tuple[int, int, int]:
    u, v, w = b.coords
    zeros = (u, v, w).count(0)
    if zeros >= 2:
        raise IsVertex(f"{op} undefined at a vertex")
    if zeros:
        raise OnSideline(f"{op} undefined on a side line")
    return u, v, w


def isotomic(ctx: ConjugacyContext, p: Bary) -> Bary:
    """Isotomic conjugate: traces reflected through the side midpoints."""
    u, v, w = _require_off_sidelines(p, "isotomic conjugate")
    return Bary(v * w, u * w, u * v)


def isogonal(ctx: ConjugacyContext, p: Bary) -> Bary:
    """Isogonal conjugate: cevians reflected in the angle bisectors."""
    u, v, w = _require_off_sidelines(p, "isogonal conjugate")
    a2, b2, c2 = ctx._integer_metric
    return Bary(a2 * v * w, b2 * u * w, c2 * u * v)


def complement(ctx: ConjugacyContext, p: Bary) -> Bary:
    """Image under the homothety with ratio -1/2 about the centroid."""
    u, v, w = p.coords
    return Bary(v + w, w + u, u + v)


def anticomplement(ctx: ConjugacyContext, p: Bary) -> Bary:
    """Image under the homothety with ratio -2 about the centroid."""
    u, v, w = p.coords
    return Bary(v + w - u, w + u - v, u + v - w)


def isotomcomplement(ctx: ConjugacyContext, p: Bary) -> Bary:
    """Complement of the isotomic conjugate: (u(v+w) : v(w+u) : w(u+v)).

    Infinite exactly when p lies on the circumscribed ellipse centered at
    the centroid (sum of coordinate products zero).
    """
    u, v, w = _require_off_sidelines(p, "isotomcomplement")
    return Bary(u * (v + w), v * (w + u), w * (u + v))


def _second_intersection(conic, s0: HPoint, s1: HPoint, known: HPoint) -> HPoint:
    """Other intersection of line s0 s1 with the conic, given one on it.

    Uses Vieta on the binary quadratic form q(lam s0 + mu s1), so a tangency
    simply returns the known point again.
    """
    m = conic.matrix
    p0, p1 = s0.coords, s1.coords
    direction = tuple(p0[2] * b - p1[2] * a for a, b in zip(p0, p1))
    if _linalg.dot(direction, _linalg.mat_vec(m, direction)) == 0:
        raise DegenerateCircle("side line meets the conic only once")
    m1 = _linalg.mat_vec(m, p1)
    a = _linalg.dot(p0, _linalg.mat_vec(m, p0))
    b = _linalg.dot(p0, m1)
    c = _linalg.dot(p1, m1)
    # known = lam_k s0 + mu_k s1, read off a nonzero coordinate of s0 x s1
    i = next(i for i, v in enumerate(_linalg.cross(p0, p1)) if v)
    lam_k = _linalg.cross(known.coords, p1)[i]
    mu_k = _linalg.cross(p0, known.coords)[i]
    # q = (mu_k lam - lam_k mu)(alpha lam + beta mu); the other root is (beta : -alpha)
    if mu_k != 0:
        lam, mu = 2 * b * mu_k + a * lam_k, -a * mu_k
    else:
        lam, mu = c, -2 * b
    return HPoint(*(lam * x + mu * y for x, y in zip(p0, p1)))


def _perspector(lines: list[HLine]) -> HPoint:
    base = lines[0]
    other = next((l for l in lines[1:] if l != base), None)
    if other is None:
        raise NotPerspective("perspector lines all coincide")
    x = meet(base, other)
    for l in lines:
        if not l.contains(x):
            raise NotPerspective(f"lines {lines} not concurrent")
    return x


def cyclocevian(ctx: ConjugacyContext, p: Bary) -> Bary:
    """Cyclocevian conjugate: the perspector cut out by the trace circle.

    The circle through the three cevian traces of p meets each side line
    again; the cevians to those second intersections concur, and their
    common point is the image.  An exact involution on its domain.
    """
    if p.is_infinite:
        raise InfiniteInput("cyclocevian conjugate needs an ordinary point")
    t = ctx.reference
    hp = ctx.to_point(p)
    d, e, f = cevian_triangle(t, hp)
    for trace in (d, e, f):
        if trace.is_infinite:
            raise DegenerateCircle(f"trace {trace} is infinite, no trace circle")
    try:
        circle = circle_through_three(d, e, f)
    except CollinearPoints as exc:
        raise DegenerateCircle(str(exc)) from exc
    d2 = _second_intersection(circle, t.B, t.C, d)
    e2 = _second_intersection(circle, t.C, t.A, e)
    f2 = _second_intersection(circle, t.A, t.B, f)
    # A second intersection can land on a vertex (circle through a vertex);
    # that cevian line is then undetermined and the others fix the perspector.
    lines = [join(vertex, trace)
             for vertex, trace in ((t.A, d2), (t.B, e2), (t.C, f2))
             if vertex != trace]
    if len(lines) < 2:
        raise NonConcurrent("too many second intersections on vertices")
    try:
        x = _perspector(lines)
    except NotPerspective as exc:
        raise NonConcurrent(str(exc)) from exc
    return ctx.to_bary(x)


def formula_one(ctx: ConjugacyContext, p: Bary) -> Bary:
    """Isotomic conjugate, isogonal in the anticomplementary frame, isotomic back.

    The middle stage runs in the anticomplementary triangle; the hand-off in
    both directions goes through Cartesian homogeneous coordinates.
    """
    anti = ctx.anticomplementary
    anti_ctx = ConjugacyContext(anti)
    stages = (
        ("isotomic_in", lambda b: isotomic(ctx, b)),
        ("to_anticomplementary", lambda b: point_to_bary(anti, bary_to_point(ctx.reference, b))),
        ("isogonal_anticomplementary", lambda b: isogonal(anti_ctx, b)),
        ("to_reference", lambda b: point_to_bary(ctx.reference, bary_to_point(anti, b))),
        ("isotomic_out", lambda b: isotomic(ctx, b)),
    )
    return _run_chain(stages, p)


def formula_two(ctx: ConjugacyContext, p: Bary) -> Bary:
    """Isotomic in, complement, isogonal, anticomplement, isotomic out."""
    stages = (
        ("isotomic_in", lambda b: isotomic(ctx, b)),
        ("complement", lambda b: complement(ctx, b)),
        ("isogonal", lambda b: isogonal(ctx, b)),
        ("anticomplement", lambda b: anticomplement(ctx, b)),
        ("isotomic_out", lambda b: isotomic(ctx, b)),
    )
    return _run_chain(stages, p)


def _run_chain(stages, b: Bary) -> Bary:
    for name, stage in stages:
        try:
            b = stage(b)
        except (OnSideline, IsVertex, InfiniteInput) as exc:
            raise ChainDegenerate(name, str(exc)) from exc
    return b


def ceva_conjugate(ctx: ConjugacyContext, p: Bary, q: Bary) -> Bary:
    """Perspector of the cevian triangle of p and the anticevian triangle of q.

    Computed synthetically from the two triangles; equals the closed form
    (x(-x/u + y/v + z/w) : y(x/u - y/v + z/w) : z(x/u + y/v - z/w)) for
    p = (u : v : w), q = (x : y : z).
    """
    t = ctx.reference
    d, e, f = cevian_triangle(t, ctx.to_point(p))
    qa, qb, qc = anticevian_triangle(t, ctx.to_point(q))
    lines = [join(d, qa), join(e, qb), join(f, qc)]
    return ctx.to_bary(_perspector(lines))
