"""Machine-checked statement registry over derived configurations.

Every entry is an exact predicate on a Configuration: no tolerances, no
floating point.  Predicates gate on their hypotheses and report SKIPPED
(hypothesis unmet) instead of passing vacuously; failures carry an exact
witness string with the offending values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .affine import MapShape, FixedPointKind, classify_homothety, fixed_points, from_correspondence, half_turn
from .configuration import Configuration
from .conjugacy import (
    ConjugacyContext,
    formula_one,
    isogonal,
    isotomcomplement,
)
from .errors import ChainDegenerate, GeometryError, UnknownTheoremId
from .projective import (
    LINE_AT_INFINITY,
    HLine,
    HPoint,
    collinear,
    join,
    meet,
    midpoint,
    parallel,
    signed_ratio,
)
from .triangle import Degeneracy, Triangle, anticevian_triangle, bary_to_point, dist2, point_to_bary, trilinear_polar


class Status(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    status: Status
    witness: Optional[str] = None
    reason: Optional[str] = None
    seed: Optional[int] = None
    index: Optional[int] = None


Outcome = tuple[Status, Optional[str]]

_PASS: Outcome = (Status.PASS, None)


def _fail(witness: str) -> Outcome:
    return Status.FAIL, witness


def _skip(reason: str) -> Outcome:
    return Status.SKIPPED, reason


def _concur_at(lines: Sequence[HLine], point: HPoint) -> bool:
    return all(l.contains(point) for l in lines)


def _on_steiner(cfg: Configuration) -> bool:
    return Degeneracy.ON_STEINER in cfg.flags


def _p_ordinary(cfg: Configuration) -> bool:
    return not cfg.P.is_infinite


# ---------------------------------------------------------------- chapter one


def t2_1(cfg: Configuration) -> Outcome:
    """Joins of side midpoints to cevian midpoints concur at the isotomcomplement."""
    lines = (
        join(cfg.D[0], cfg.M_d),
        join(cfg.E[0], cfg.M_e),
        join(cfg.F[0], cfg.M_f),
    )
    if not _concur_at(lines, cfg.Q):
        return _fail(f"lines {lines} do not concur at Q={cfg.Q}")
    return _PASS


def c2_2(cfg: Configuration) -> Outcome:
    """D0 Q runs parallel to A P'; the complement carries D3 to M_d."""
    l1 = join(cfg.D[0], cfg.Q)
    l2 = join(cfg.triangle.A, cfg.P_prime)
    if not parallel(l1, l2):
        return _fail(f"{l1} not parallel to {l2}")
    img = cfg.K_map.apply(cfg.D[3])
    if img != cfg.M_d:
        return _fail(f"complement of D3 is {img}, expected M_d={cfg.M_d}")
    return _PASS


def t2_3(cfg: Configuration) -> Outcome:
    """Midpoint triangles at each vertex are perspective; the three centers
    lie on the trilinear polar of Q in the medial frame."""
    t = cfg.triangle
    d1, e1, f1 = cfg.D[1], cfg.E[1], cfg.F[1]
    per_vertex = (
        (cfg.O_a, midpoint(t.A, e1), midpoint(t.A, f1), cfg.E[0], cfg.F[0], cfg.M_e, cfg.M_f),
        (cfg.O_b, midpoint(t.B, d1), midpoint(t.B, f1), cfg.D[0], cfg.F[0], cfg.M_d, cfg.M_f),
        (cfg.O_c, midpoint(t.C, d1), midpoint(t.C, e1), cfg.D[0], cfg.E[0], cfg.M_d, cfg.M_e),
    )
    for o, v1, v2, s1, s2, m1, m2 in per_vertex:
        lines = (join(v1, v2), join(s1, s2), join(m1, m2))
        if not _concur_at(lines, o):
            return _fail(f"perspectivity center {o} not on all of {lines}")
    if not collinear((cfg.O_a, cfg.O_b, cfg.O_c)):
        return _fail(f"O_a={cfg.O_a}, O_b={cfg.O_b}, O_c={cfg.O_c} not collinear")
    axis = trilinear_polar(cfg.ctx.medial, cfg.Q)
    for o in (cfg.O_a, cfg.O_b, cfg.O_c):
        if not axis.contains(o):
            return _fail(f"{o} off the trilinear polar {axis} of Q in the medial frame")
    return _PASS


def t2_4(cfg: Configuration) -> Outcome:
    """Vertex joins to the opposite chord midpoints concur at the isotomcomplement."""
    t = cfg.triangle
    lines = (join(t.A, cfg.Ai[0]), join(t.B, cfg.Bi[0]), join(t.C, cfg.Ci[0]))
    if not _concur_at(lines, cfg.Q):
        return _fail(f"lines {lines} miss Q={cfg.Q}")
    return _PASS


def t2_5(cfg: Configuration) -> Outcome:
    """The half turn about N1 swaps the two pivot hexagon vertex lists.

    When P' is infinite its midpoint R' does not exist and the image of Q
    is Q itself.
    """
    if not _p_ordinary(cfg):
        return _skip("pivot at infinity: R undefined")
    h = half_turn(cfg.N1)
    q_target = cfg.R_prime if cfg.R_prime is not None else cfg.Q
    pairs = (
        (cfg.triangle.A, cfg.D[0]),
        (cfg.R, cfg.Q_prime),
        (cfg.M_d, cfg.M_d_prime),
        (cfg.Q, q_target),
        (cfg.Ai[0], cfg.A0_prime),
        (cfg.D[0], cfg.triangle.A),
    )
    for src, dst in pairs:
        img = h.apply(src)
        if img != dst:
            return _fail(f"half turn about N1={cfg.N1} sends {src} to {img}, expected {dst}")
    return _PASS


def c2_6(cfg: Configuration) -> Outcome:
    """Congruent pivot quadrilaterals; D0, R, A0 collinear with midpoint M;
    for P' infinite the chain Q, M_d, D0, A0', K(A0) is collinear."""
    checks = 0
    if _p_ordinary(cfg):
        checks += 1
        if cfg.R_prime is not None:
            h = half_turn(cfg.N1)
            quad = ((cfg.R, cfg.Q_prime), (cfg.Ai[0], cfg.A0_prime),
                    (cfg.Q, cfg.R_prime), (cfg.M_d, cfg.M_d_prime))
            for src, dst in quad:
                if h.apply(src) != dst:
                    return _fail(f"quadrilateral pairing breaks at {src} -> {dst}")
        if not collinear((cfg.D[0], cfg.R, cfg.Ai[0], cfg.M)):
            return _fail(f"D0={cfg.D[0]}, R={cfg.R}, A0={cfg.Ai[0]}, M={cfg.M} not collinear")
        if cfg.M != midpoint(cfg.D[0], cfg.R):
            return _fail(f"M={cfg.M} is not the midpoint of D0 R")
        if cfg.M != cfg.K_map.apply(cfg.Q_prime):
            return _fail(f"M={cfg.M} is not the complement of Q'")
    if cfg.P_prime.is_infinite:
        checks += 1
        chain = (cfg.Q, cfg.M_d, cfg.D[0], cfg.A0_prime, cfg.K_map.apply(cfg.Ai[0]))
        if not collinear(chain):
            return _fail(f"chain {chain} not collinear for infinite P'")
    if not checks:
        return _skip("pivot at infinity and conjugate pivot ordinary")
    return _PASS


def t2_7(cfg: Configuration) -> Outcome:
    """The isogonal conjugate of Q is the isotomcomplement of the cyclocevian image."""
    if not _p_ordinary(cfg):
        return _skip("cyclocevian conjugate needs an ordinary pivot")
    phi = cfg.cyclocevian_image
    if 0 in phi.coords:
        return _skip("cyclocevian image on a side line")
    lhs = isogonal(cfg.ctx, cfg.Q_bary)
    rhs = isotomcomplement(cfg.ctx, phi)
    if lhs != rhs:
        return _fail(f"isogonal(Q)={lhs} != isotomcomplement(cyclocevian P)={rhs}")
    try:
        f2 = cfg.formula_two_image
    except ChainDegenerate as exc:
        return _skip(str(exc))
    if f2 != phi:
        return _fail(f"composite formula gives {f2}, trace circle gives {phi}")
    return _PASS


# ---------------------------------------------------------------- chapter two


def l3_1(cfg: Configuration) -> Outcome:
    """Dividing EF as D divides BC yields a parallel to A A0."""
    t = cfg.triangle
    r = signed_ratio(t.B, t.C, cfg.D[1])
    ex, ey = cfg.E[1].to_xy()
    fx, fy = cfg.F[1].to_xy()
    x_loc = HPoint((fx + r * ex) / (1 + r), (fy + r * ey) / (1 + r), 1)
    if not parallel(join(cfg.D[1], x_loc), join(t.A, cfg.Ai[0])):
        return _fail(f"D{cfg.D[1]} to {x_loc} not parallel to A A0")
    return _PASS


def t3_2(cfg: Configuration) -> Outcome:
    """The cevian map fixes the isotomcomplement."""
    img = cfg.T_P.apply(cfg.Q)
    if img != cfg.Q:
        return _fail(f"T_P(Q)={img} != Q={cfg.Q}")
    return _PASS


def c3_3(cfg: Configuration) -> Outcome:
    """Q is the complement, taken inside the cevian triangle, of T_P(P')."""
    d, e, f = cfg.D[1], cfg.E[1], cfg.F[1]
    k_inner = from_correspondence(
        (d, e, f), (midpoint(e, f), midpoint(d, f), midpoint(d, e)))
    img = k_inner.apply(cfg.T_P.apply(cfg.P_prime))
    if img != cfg.Q:
        return _fail(f"inner complement of T_P(P') is {img}, expected Q={cfg.Q}")
    return _PASS


def l3_4(cfg: Configuration) -> Outcome:
    """Chord division by the vertex median, squared with the sign tracked.

    The stated ratio mixes two irrational side lengths, so the identity is
    checked on squares and the sign compared through rational direction
    coefficients along the rays.
    """
    t = cfg.triangle
    e1, f1 = cfg.E[1], cfg.F[1]
    a_star = meet(join(t.A, cfg.G), join(e1, f1))
    if a_star.is_infinite:
        return _skip("vertex median parallel to the chord")
    if a_star == f1:
        return _fail("median meets the chord at F")
    r1 = signed_ratio(e1, f1, a_star)
    lhs = r1 * r1
    rhs = (dist2(t.A, e1) * dist2(t.A, t.B)) / (dist2(t.A, f1) * dist2(t.A, t.C))
    if lhs != rhs:
        return _fail(f"squared ratio {lhs} != {rhs}")

    def ray_coefficient(origin: HPoint, toward: HPoint, pt: HPoint) -> Fraction:
        ox, oy = origin.to_xy()
        tx, ty = toward.to_xy()
        px, py = pt.to_xy()
        return (px - ox) / (tx - ox) if tx != ox else (py - oy) / (ty - oy)

    eps = ray_coefficient(t.A, t.C, e1)
    phi = ray_coefficient(t.A, t.B, f1)
    sign = lambda q: (q > 0) - (q < 0)
    if sign(r1) != sign(eps) * sign(phi):
        return _fail(f"sign of {r1} inconsistent with ray signs {eps}, {phi}")
    return _PASS


_PI_PARAMS = (Fraction(1, 2), Fraction(2), Fraction(3), Fraction(-1), Fraction(5), Fraction(-2, 3))


def pi_inv(cfg: Configuration) -> Outcome:
    """The base-side involution squares to the identity and swaps B with C."""
    t = cfg.triangle
    if cfg.pi(t.B) != t.C or cfg.pi(t.C) != t.B:
        return _fail("involution does not swap B and C")
    bx, by, bz = t.B.coords
    cx, cy, cz = t.C.coords
    for k in _PI_PARAMS:
        # y = B + k (C - B) with k = n / d
        n, d = k.numerator, k.denominator
        y = HPoint((d - n) * bx * cz + n * cx * bz, (d - n) * by * cz + n * cy * bz, d * bz * cz)
        back = cfg.pi(cfg.pi(y))
        if back != y:
            return _fail(f"pi(pi({y})) = {back}")
    return _PASS


def t3_5(cfg: Configuration) -> Outcome:
    """Six aligned quadruples through each vertex: image point, pivot, trace."""
    t = cfg.triangle
    pivots = (cfg.Q, cfg.Q_prime, cfg.G, cfg.X, cfg.P, cfg.P_prime)
    trace_index = (2, 4, 0, 5, 1, 3)
    families = ((t.A, cfg.Ai, cfg.D), (t.B, cfg.Bi, cfg.E), (t.C, cfg.Ci, cfg.F))
    checked = 0
    for vertex, images, traces in families:
        for i, (pivot, idx) in enumerate(zip(pivots, trace_index)):
            quad = (vertex, images[i], pivot, traces[idx])
            if any(q is None for q in quad):
                continue
            checked += 1
            if not collinear(quad):
                return _fail(f"points {quad} not collinear at vertex {vertex}")
    if not checked:
        return _skip("no quadruple fully defined")
    return _PASS


def t3_6(cfg: Configuration) -> Outcome:
    """The cevian map carries the conjugate pivot to the pivot."""
    img = cfg.T_P.apply(cfg.Q_prime)
    if img != cfg.P:
        return _fail(f"T_P(Q')={img} != P={cfg.P}")
    return _PASS


def t3_7(cfg: Configuration) -> Outcome:
    """The composed cevian maps form a homothety (or translation) centered
    at X, and the center lies on the pivot join P Q'.

    The join clause is vacuous when P coincides with Q' (the centroid, or
    any infinite pivot, which the complement map fixes).
    """
    clf = classify_homothety(cfg.S)
    if clf.shape == MapShape.HOMOTHETY:
        if clf.center != cfg.X:
            return _fail(f"homothety center {clf.center} != X={cfg.X}")
    elif clf.shape == MapShape.TRANSLATION:
        if clf.direction != cfg.X:
            return _fail(f"translation direction {clf.direction} != X={cfg.X}")
    else:
        return _fail(f"composed map is neither homothety nor translation: {cfg.S}")
    if cfg.P != cfg.Q_prime:
        pivot_join = join(cfg.P, cfg.Q_prime)
        if not pivot_join.contains(cfg.X):
            return _fail(f"X={cfg.X} off the pivot join {pivot_join}")
    return _PASS


def t3_8(cfg: Configuration) -> Outcome:
    """Parallels to the chord lines through the vertices meet in the
    anticevian triangle of the isotomcomplement."""
    t = cfg.triangle
    d1, e1, f1 = cfg.D[1], cfg.E[1], cfg.F[1]
    acv = anticevian_triangle(t, cfg.Q)

    def parallel_through(vertex: HPoint, p1: HPoint, p2: HPoint) -> HLine:
        return join(vertex, meet(join(p1, p2), LINE_AT_INFINITY))

    la = parallel_through(t.A, e1, f1)
    lb = parallel_through(t.B, d1, f1)
    lc = parallel_through(t.C, d1, e1)
    got = (meet(lb, lc), meet(la, lc), meet(la, lb))
    if got != acv:
        return _fail(f"parallel construction gives {got}, anticevian is {acv}")
    return _PASS


def t3_9(cfg: Configuration) -> Outcome:
    """X is simultaneously the pairwise join point of the image triangle and
    the perspector of the cevian and anticevian triangles; the map between
    them is the inverse of the composed map."""
    t = cfg.triangle
    lines = []
    for vertex, img in ((t.A, cfg.Ai[3]), (t.B, cfg.Bi[3]), (t.C, cfg.Ci[3])):
        if img is None or img == vertex:
            continue
        lines.append(join(vertex, img))
    if len(lines) < 2:
        return _skip("image joins undefined")
    if not _concur_at(lines, cfg.X):
        return _fail(f"image joins {lines} miss X={cfg.X}")
    acv = anticevian_triangle(t, cfg.Q)
    rebuilt = from_correspondence((cfg.D[1], cfg.E[1], cfg.F[1]), acv)
    if rebuilt != cfg.S.invert():
        return _fail("map from cevian to anticevian triangle is not the inverse composed map")
    if not cfg.X.is_infinite:
        fp = fixed_points(cfg.S)
        if fp.kind != FixedPointKind.UNIQUE_POINT or fp.point != cfg.X:
            return _fail(f"fixed locus of the composed map is {fp.kind}, point {fp.point}")
    return _PASS


def c3_10(cfg: Configuration) -> Outcome:
    """The inverse cevian map of P' carries the vertices to the anticevian
    triangle of Q; images of X' and X match; X and X' are ordinary together."""
    t = cfg.triangle
    acv = anticevian_triangle(t, cfg.Q)
    inv = cfg.T_P_prime.invert()
    got = tuple(inv.apply(v) for v in t.vertices)
    if got != acv:
        return _fail(f"inverse map sends vertices to {got}, anticevian is {acv}")
    if cfg.T_P.apply(cfg.X_prime) != cfg.X:
        return _fail(f"T_P(X')={cfg.T_P.apply(cfg.X_prime)} != X={cfg.X}")
    if cfg.X.is_infinite != cfg.X_prime.is_infinite:
        return _fail(f"X={cfg.X} and X'={cfg.X_prime} differ in ordinariness")
    return _PASS


def t3_11(cfg: Configuration) -> Outcome:
    """Off the circumscribed centroid ellipse, Q is the unique ordinary
    fixed point of the cevian map (ordinary pivot only)."""
    if not _p_ordinary(cfg):
        return _skip("infinite pivot: the cevian map fixes a whole axis")
    if _on_steiner(cfg):
        return _skip("pivot on the circumscribed centroid ellipse")
    fp = fixed_points(cfg.T_P)
    if fp.kind != FixedPointKind.UNIQUE_POINT:
        return _fail(f"fixed locus kind {fp.kind.value}")
    if fp.point != cfg.Q:
        return _fail(f"fixed point {fp.point} != Q={cfg.Q}")
    return _PASS


def r3_11(cfg: Configuration) -> Outcome:
    """On the ellipse the cevian map has no ordinary fixed point, and the
    join of the centroid with its image is an invariant line."""
    if not _on_steiner(cfg):
        return _skip("pivot not on the circumscribed centroid ellipse")
    fp = fixed_points(cfg.T_P)
    if fp.kind != FixedPointKind.NO_ORDINARY_FIXED_POINT:
        return _fail(f"fixed locus kind {fp.kind.value}")
    g_img = cfg.T_P.apply(cfg.G)
    if g_img == cfg.G:
        return _fail("centroid unexpectedly fixed")
    g_line = join(cfg.G, g_img)
    if cfg.T_P.apply_line(g_line) != g_line:
        return _fail(f"line {g_line} through G and T_P(G) not invariant")
    return _PASS


def t3_12(cfg: Configuration) -> Outcome:
    """Q' is the isotomcomplement of Q relative to the anticevian triangle of Q."""
    if not _p_ordinary(cfg):
        return _skip("stated for an ordinary pivot")
    t = cfg.triangle
    acv = Triangle(*anticevian_triangle(t, cfg.Q))
    inner = point_to_bary(acv, cfg.Q)
    if 0 in inner.coords:
        return _skip("Q on a side line of its anticevian triangle")
    img = bary_to_point(acv, isotomcomplement(ConjugacyContext(acv), inner))
    if img != cfg.Q_prime:
        return _fail(f"anticevian isotomcomplement of Q is {img}, expected Q'={cfg.Q_prime}")
    return _PASS


def t3_13(cfg: Configuration) -> Outcome:
    """Pivot on the ellipse exactly when the composed map is the
    anticomplement homothety; both directions are exercised by strata."""
    equal = cfg.S == cfg.K_inv_map
    if _on_steiner(cfg):
        if not equal:
            return _fail(f"composed map {cfg.S} differs from the anticomplement map")
        return _PASS
    if equal:
        return _fail("composed map equals the anticomplement map off the ellipse")
    return _PASS


def c3_14(cfg: Configuration) -> Outcome:
    """On the ellipse: both image triangles are the anticomplementary
    triangle; the anticevian triangles of Q and Q' are the complement of the
    cevian triangle and the primed chord midpoints."""
    if not _on_steiner(cfg):
        return _skip("pivot not on the circumscribed centroid ellipse")
    anti = cfg.ctx.anticomplementary
    for got2, got3, expected in (
        (cfg.Ai[2], cfg.Ai[3], anti.A),
        (cfg.Bi[2], cfg.Bi[3], anti.B),
        (cfg.Ci[2], cfg.Ci[3], anti.C),
    ):
        if got2 != expected or got3 != expected:
            return _fail(f"image vertices {got2}, {got3} differ from {expected}")
    acv_q = anticevian_triangle(cfg.triangle, cfg.Q)
    k_def = tuple(cfg.K_map.apply(p) for p in (cfg.D[1], cfg.E[1], cfg.F[1]))
    if acv_q != k_def:
        return _fail(f"anticevian of Q is {acv_q}, complement of the cevian triangle is {k_def}")
    acv_qp = anticevian_triangle(cfg.triangle, cfg.Q_prime)
    primed = (cfg.A0_prime, cfg.B0_prime, cfg.C0_prime)
    if acv_qp != primed:
        return _fail(f"anticevian of Q' is {acv_qp}, primed midpoints are {primed}")
    return _PASS


def f1_f2(cfg: Configuration) -> Outcome:
    """The two composite formulas agree with the trace-circle construction."""
    if not _p_ordinary(cfg):
        return _skip("cyclocevian conjugate needs an ordinary pivot")
    phi = cfg.cyclocevian_image
    try:
        f1 = formula_one(cfg.ctx, cfg.P_bary)
        f2 = cfg.formula_two_image
    except ChainDegenerate as exc:
        return _skip(str(exc))
    if not (f1 == f2 == phi):
        return _fail(f"routes disagree: {f1}, {f2}, trace circle {phi}")
    return _PASS


@dataclass(frozen=True)
class TheoremDef:
    theorem_id: str
    summary: str
    predicate: Callable[[Configuration], Outcome]


REGISTRY: dict[str, TheoremDef] = {
    d.theorem_id: d
    for d in (
        TheoremDef("T2_1", "midpoint joins concur at the isotomcomplement", t2_1),
        TheoremDef("C2_2", "parallel pivot join and complement of the isotomic trace", c2_2),
        TheoremDef("T2_3", "vertex midpoint triangles are perspective on a common axis", t2_3),
        TheoremDef("T2_4", "vertex-to-chord-midpoint joins concur at the isotomcomplement", t2_4),
        TheoremDef("T2_5", "half turn about N1 exchanges the pivot hexagons", t2_5),
        TheoremDef("C2_6", "congruent pivot quadrilaterals and the midpoint chain", c2_6),
        TheoremDef("T2_7", "isogonal of Q matches the isotomcomplement of the cyclocevian image", t2_7),
        TheoremDef("L3_1", "chord point dividing like the base trace gives a parallel", l3_1),
        TheoremDef("T3_2", "the cevian map fixes the isotomcomplement", t3_2),
        TheoremDef("C3_3", "Q is the in-triangle complement of the image of P'", c3_3),
        TheoremDef("L3_4", "squared sign-tracked chord division by the vertex median", l3_4),
        TheoremDef("PI_INV", "the base side projection map is an involution", pi_inv),
        TheoremDef("T3_5", "six aligned quadruples per vertex", t3_5),
        TheoremDef("T3_6", "the cevian map sends the conjugate pivot to the pivot", t3_6),
        TheoremDef("T3_7", "the composed map is a homothety or translation centered on the pivot join", t3_7),
        TheoremDef("T3_8", "vertex parallels to the chords cut out the anticevian triangle", t3_8),
        TheoremDef("T3_9", "X is the perspector of the cevian and anticevian triangles", t3_9),
        TheoremDef("C3_10", "the inverse cevian map of P' produces the anticevian triangle", c3_10),
        TheoremDef("T3_11", "unique ordinary fixed point off the ellipse", t3_11),
        TheoremDef("R3_11", "no ordinary fixed point on the ellipse, invariant centroid line", r3_11),
        TheoremDef("T3_12", "Q' is the anticevian-frame isotomcomplement of Q", t3_12),
        TheoremDef("T3_13", "ellipse membership is equivalent to the anticomplement identity", t3_13),
        TheoremDef("C3_14", "ellipse case: image triangles are the anticomplementary triangle", c3_14),
        TheoremDef("F1_F2", "composite formulas agree with the trace circle construction", f1_f2),
    )
}


def check(theorem_id: str, cfg: Configuration) -> TheoremReport:
    """Evaluate one registered statement on a configuration.

    A GeometryError escaping a predicate means some auxiliary object of the
    statement is undefined on this configuration, which is a failed
    hypothesis rather than a refutation.
    """
    try:
        definition = REGISTRY[theorem_id]
    except KeyError:
        raise UnknownTheoremId(f"no statement registered under {theorem_id!r}") from None
    try:
        status, detail = definition.predicate(cfg)
    except GeometryError as exc:
        status, detail = Status.SKIPPED, f"degenerate construction: {exc}"
    return TheoremReport(
        theorem_id=theorem_id,
        status=status,
        witness=detail if status is Status.FAIL else None,
        reason=detail if status is Status.SKIPPED else None,
        seed=cfg.seed,
        index=cfg.index,
    )


def run_suite(configs: Iterable[Configuration],
              ids: Optional[Sequence[str]] = None) -> list[TheoremReport]:
    """Evaluate the selected statements (defaults to all) on each configuration."""
    if ids is None:
        selected = list(REGISTRY)
    else:
        selected = list(ids)
        for theorem_id in selected:
            if theorem_id not in REGISTRY:
                raise UnknownTheoremId(f"no statement registered under {theorem_id!r}")
    return [check(theorem_id, cfg) for cfg in configs for theorem_id in selected]
