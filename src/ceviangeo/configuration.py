"""The full derived configuration of a reference triangle and a pivot point.

build_configuration materializes every named point and map the theorem suite
speaks about, from the triangle and P alone.  The standing hypothesis is that
P avoids the side lines of the triangle and of its anticomplementary
triangle (hence all primary cevian traces are ordinary); P itself may be
infinite, and the conjugate pivot may degenerate to an infinite point, in
which case the fields that genuinely need ordinary inputs are None.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .affine import AffineMap, from_correspondence
from .conjugacy import (
    ConjugacyContext,
    ceva_conjugate,
    complement,
    cyclocevian,
    formula_two,
    isotomic,
)
from .errors import HypothesisViolated
from .projective import HLine, HPoint, join, meet, midpoint
from .triangle import (
    Bary,
    Degeneracy,
    Triangle,
    bary_to_point,
    classify_point,
    point_to_bary,
)

_FORBIDDEN = frozenset({
    Degeneracy.ON_SIDELINE,
    Degeneracy.ON_ANTICOMPLEMENTARY_SIDE,
    Degeneracy.IS_VERTEX,
})


@dataclass
class Configuration:
    """Everything derived from (triangle, P); indexed families run 0..5.

    Trace families D/E/F sit on the side lines opposite A/B/C; their pivots
    are, in order, the centroid, P, the isotomcomplement Q, the isotomic
    conjugate P', the conjugate pivot Q' and the spiral fixed point X.
    Ai/Bi/Ci are the images of the traces under the cevian map of P.
    """

    triangle: Triangle
    ctx: ConjugacyContext
    P: HPoint
    P_bary: Bary
    flags: frozenset[Degeneracy]

    G: HPoint
    P_prime: HPoint
    P_prime_bary: Bary
    Q: HPoint
    Q_bary: Bary
    Q_prime: HPoint
    Q_prime_bary: Bary

    D: tuple[Optional[HPoint], ...]
    E: tuple[Optional[HPoint], ...]
    F: tuple[Optional[HPoint], ...]
    Ai: tuple[Optional[HPoint], ...]
    Bi: tuple[Optional[HPoint], ...]
    Ci: tuple[Optional[HPoint], ...]

    M_d: HPoint
    M_e: HPoint
    M_f: HPoint
    M_d_prime: HPoint
    M_e_prime: HPoint
    M_f_prime: HPoint
    N1: HPoint
    R: Optional[HPoint]
    R_prime: Optional[HPoint]
    M: Optional[HPoint]
    A0_prime: HPoint
    B0_prime: HPoint
    C0_prime: HPoint
    O_a: HPoint
    O_b: HPoint
    O_c: HPoint

    X: HPoint
    X_bary: Bary
    X_prime: HPoint
    X_prime_bary: Bary

    T_P: AffineMap
    T_P_prime: AffineMap
    S: AffineMap
    K_map: AffineMap
    K_inv_map: AffineMap

    seed: Optional[int] = None
    index: Optional[int] = None

    @cached_property
    def cyclocevian_image(self) -> Bary:
        """Cyclocevian image of P, shared by every statement and figure.

        Computed on first use; a construction that fails is not cached and
        raises the same GeometryError again on the next use.
        """
        return cyclocevian(self.ctx, self.P_bary)

    @cached_property
    def formula_two_image(self) -> Bary:
        """formula_two of P, computed on first use like cyclocevian_image."""
        return formula_two(self.ctx, self.P_bary)

    def pi(self, y: HPoint) -> HPoint:
        """Involution of the side line BC: project through A after the cevian map.

        Swaps B and C; defined for every point of BC, including its infinite
        point.
        """
        image = self.T_P.apply(y)
        side = join(self.triangle.B, self.triangle.C)
        return meet(join(self.triangle.A, image), side)


def _trace(t: Triangle, vertex: HPoint, side: HLine, p: HPoint) -> Optional[HPoint]:
    """Trace of the cevian from vertex through p, or None when p is the vertex."""
    if p == vertex:
        return None
    line = join(vertex, p)
    if line == side:
        return None
    return meet(line, side)


def build_configuration(t: Triangle, p: HPoint,
                        seed: Optional[int] = None,
                        index: Optional[int] = None) -> Configuration:
    """Derive the complete configuration; raises HypothesisViolated when P
    meets a side line, a vertex, or an anticomplementary side line."""
    flags = classify_point(t, p)
    bad = flags & _FORBIDDEN
    if bad:
        raise HypothesisViolated(
            "pivot violates the standing hypothesis: " + ", ".join(sorted(f.value for f in bad)))

    ctx = ConjugacyContext(t)
    p_bary = point_to_bary(t, p)
    g = t.centroid

    p_prime_bary = isotomic(ctx, p_bary)
    q_bary = complement(ctx, p_prime_bary)
    q_prime_bary = complement(ctx, p_bary)
    p_prime = bary_to_point(t, p_prime_bary)
    q = bary_to_point(t, q_bary)
    q_prime = bary_to_point(t, q_prime_bary)

    pivots = [g, p, q, p_prime, q_prime]
    side_a, side_b, side_c = t.sides
    d_list: list[Optional[HPoint]] = []
    e_list: list[Optional[HPoint]] = []
    f_list: list[Optional[HPoint]] = []
    for pivot in pivots:
        d_list.append(_trace(t, t.A, side_a, pivot))
        e_list.append(_trace(t, t.B, side_b, pivot))
        f_list.append(_trace(t, t.C, side_c, pivot))

    t_p = from_correspondence(t.vertices, (d_list[1], e_list[1], f_list[1]))
    t_p_prime = from_correspondence(t.vertices, (d_list[3], e_list[3], f_list[3]))
    s = t_p.compose(t_p_prime)

    medial = ctx.medial
    k_map = from_correspondence(t.vertices, medial.vertices)
    k_inv_map = k_map.invert()

    x_bary = ceva_conjugate(ctx, p_bary, q_bary)
    x = bary_to_point(t, x_bary)
    x_prime_bary = ceva_conjugate(ctx, p_prime_bary, q_prime_bary)
    x_prime = bary_to_point(t, x_prime_bary)

    d_list.append(_trace(t, t.A, side_a, x))
    e_list.append(_trace(t, t.B, side_b, x))
    f_list.append(_trace(t, t.C, side_c, x))

    ai = tuple(t_p.apply(pt) if pt is not None else None for pt in d_list)
    bi = tuple(t_p.apply(pt) if pt is not None else None for pt in e_list)
    ci = tuple(t_p.apply(pt) if pt is not None else None for pt in f_list)

    d1, e1, f1 = d_list[1], e_list[1], f_list[1]
    d3, e3, f3 = d_list[3], e_list[3], f_list[3]
    m_d = midpoint(t.A, d1)
    m_e = midpoint(t.B, e1)
    m_f = midpoint(t.C, f1)
    m_d_prime = midpoint(t.A, d3)
    m_e_prime = midpoint(t.B, e3)
    m_f_prime = midpoint(t.C, f3)
    n1 = midpoint(t.A, d_list[0])
    r = midpoint(t.A, p) if not p.is_infinite else None
    r_prime = midpoint(t.A, p_prime) if not p_prime.is_infinite else None
    m = midpoint(p, q_prime) if not (p.is_infinite or q_prime.is_infinite) else None
    a0_prime = midpoint(e3, f3)
    b0_prime = midpoint(d3, f3)
    c0_prime = midpoint(d3, e3)

    def complement_of_meet(l1: HLine, l2: HLine) -> HPoint:
        return k_map.apply(meet(l1, l2))

    o_a = complement_of_meet(join(e3, f3), side_a)
    o_b = complement_of_meet(join(d3, f3), side_b)
    o_c = complement_of_meet(join(d3, e3), side_c)

    return Configuration(
        triangle=t, ctx=ctx, P=p, P_bary=p_bary, flags=flags,
        G=g, P_prime=p_prime, P_prime_bary=p_prime_bary,
        Q=q, Q_bary=q_bary, Q_prime=q_prime, Q_prime_bary=q_prime_bary,
        D=tuple(d_list), E=tuple(e_list), F=tuple(f_list),
        Ai=ai, Bi=bi, Ci=ci,
        M_d=m_d, M_e=m_e, M_f=m_f,
        M_d_prime=m_d_prime, M_e_prime=m_e_prime, M_f_prime=m_f_prime,
        N1=n1, R=r, R_prime=r_prime, M=m,
        A0_prime=a0_prime, B0_prime=b0_prime, C0_prime=c0_prime,
        O_a=o_a, O_b=o_b, O_c=o_c,
        X=x, X_bary=x_bary, X_prime=x_prime, X_prime_bary=x_prime_bary,
        T_P=t_p, T_P_prime=t_p_prime, S=s, K_map=k_map, K_inv_map=k_inv_map,
        seed=seed, index=index,
    )
