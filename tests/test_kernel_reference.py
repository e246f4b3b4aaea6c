"""The integer kernel against a plain Fraction reference kept in this file.

The reference works in Cartesian coordinates over Fraction with textbook
formulas (Gaussian elimination, affine maps as a 2x2 matrix plus a
translation) and shares no code with the engine.  Inputs mix small values,
which hit the degenerate cases, with rationals of 64 bits and more in both
numerator and denominator.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ceviangeo.affine import AffineMap
from ceviangeo.errors import CollinearTarget
from ceviangeo.projective import HLine, HPoint, collinear, concurrent, midpoint
from ceviangeo.triangle import Bary, Triangle, bary_to_point, point_to_bary

SETTINGS = settings(max_examples=50, deadline=None)

small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
tall = st.builds(Fraction,
                 st.integers(min_value=-(1 << 80), max_value=1 << 80),
                 st.integers(min_value=1 << 63, max_value=1 << 80))
rational = st.one_of(small, tall)
xy = st.tuples(rational, rational)


# ------------------------------------------------------------------ reference


def ref_rank(rows):
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                factor = work[i][col] / work[rank][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def ref_solve3(m, rhs):
    """Gauss-Jordan solution of the 3x3 system m x = rhs (m invertible)."""
    work = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(m, rhs)]
    for col in range(3):
        pivot = next(i for i in range(col, 3) if work[i][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        for i in range(3):
            if i != col:
                factor = work[i][col] / work[col][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[col])]
    return [work[i][3] / work[i][i] for i in range(3)]


def ref_vertex_matrix(vertices):
    return [[v[0] for v in vertices], [v[1] for v in vertices], [1, 1, 1]]


def ref_apply(m, t, p):
    x, y, z = p
    return (m[0][0] * x + m[0][1] * y + t[0] * z,
            m[1][0] * x + m[1][1] * y + t[1] * z, z)


def ref_compose(f, g):
    (m, t), (n, s) = f, g
    mn = tuple(tuple(sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2))
               for i in range(2))
    return mn, tuple(sum(m[i][k] * s[k] for k in range(2)) + t[i] for i in range(2))


def ref_invert(m, t):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    inv = ((m[1][1] / det, -m[0][1] / det), (-m[1][0] / det, m[0][0] / det))
    return inv, tuple(-(inv[i][0] * t[0] + inv[i][1] * t[1]) for i in range(2))


# ------------------------------------------------------------------ strategies


@st.composite
def points(draw, count):
    """Ordinary and infinite points; often all on one line."""
    base, other = draw(xy), draw(xy)
    out = []
    for _ in range(count):
        kind = draw(st.sampled_from(("free", "on_line", "infinite")))
        if kind == "free":
            x, y = draw(xy)
            out.append(HPoint(x, y, 1))
        elif kind == "on_line":
            k = draw(rational)
            out.append(HPoint(base[0] + k * (other[0] - base[0]),
                              base[1] + k * (other[1] - base[1]), 1))
        else:
            assume(base != other)
            out.append(HPoint(other[0] - base[0], other[1] - base[1], 0))
    return out


@st.composite
def lines(draw, count):
    """Lines, often through one common point, ordinary or at infinity."""
    mode = draw(st.sampled_from(("free", "through", "parallel")))
    x, y = draw(xy)
    normal = draw(xy)
    out = []
    for _ in range(count):
        a, b, c = draw(rational), draw(rational), draw(rational)
        if mode == "through":
            c = -(a * x + b * y)
        elif mode == "parallel":
            a, b = normal
        assume(a or b or c)
        out.append(HLine(a, b, c))
    return out


@st.composite
def triangles(draw):
    vertices = [draw(xy) for _ in range(3)]
    assume(ref_rank(ref_vertex_matrix(vertices)) == 3)
    return vertices, Triangle.from_xy(*vertices)


@st.composite
def affine_pairs(draw):
    m = ((draw(rational), draw(rational)), (draw(rational), draw(rational)))
    return m, (draw(rational), draw(rational))


# ------------------------------------------------------------------ projective


@given(st.integers(min_value=3, max_value=5).flatmap(points))
@SETTINGS
def test_collinear_matches_reference(pts):
    assert collinear(pts) == (ref_rank([p.coords for p in pts]) <= 2)


@given(st.integers(min_value=3, max_value=5).flatmap(lines))
@SETTINGS
def test_concurrent_matches_reference(ls):
    assert concurrent(ls) == (ref_rank([l.coeffs for l in ls]) <= 2)


@given(xy, xy, st.integers(min_value=1, max_value=1 << 70), st.integers(min_value=1, max_value=1 << 70))
@SETTINGS
def test_midpoint_matches_reference(a, b, sa, sb):
    # non-canonical homogeneous scales on the inputs must not matter
    pa = HPoint(a[0] * sa, a[1] * sa, -sa)
    pb = HPoint(b[0] * sb, b[1] * sb, sb)
    expected = HPoint((-a[0] + b[0]) / 2, (-a[1] + b[1]) / 2, 1)
    assert midpoint(pa, pb) == expected


# ------------------------------------------------------------------ triangle frame


@given(triangles(), st.tuples(rational, rational, rational))
@SETTINGS
def test_bary_to_point_matches_reference(tri, weights):
    vertices, t = tri
    assume(any(weights))
    u, v, w = weights
    x = sum(c * vx for c, (vx, _) in zip(weights, vertices))
    y = sum(c * vy for c, (_, vy) in zip(weights, vertices))
    assert bary_to_point(t, Bary(u, v, w)) == HPoint(x, y, u + v + w)


@given(triangles(), points(1))
@SETTINGS
def test_point_to_bary_matches_reference(tri, pts):
    vertices, t = tri
    (p,) = pts
    solution = ref_solve3(ref_vertex_matrix(vertices), p.coords)
    assert point_to_bary(t, p) == Bary(*solution)
    assert bary_to_point(t, point_to_bary(t, p)) == p


# ------------------------------------------------------------------ affine maps


@given(affine_pairs(), points(2))
@SETTINGS
def test_affine_apply_matches_reference(pair, pts):
    m, t = pair
    f = AffineMap(m, t)
    assert f.m == m and f.t == t
    for p in pts:
        assert f.apply(p) == HPoint(*ref_apply(m, t, p.coords))


@given(affine_pairs(), affine_pairs())
@SETTINGS
def test_affine_compose_matches_reference(f_pair, g_pair):
    composed = AffineMap(*f_pair).compose(AffineMap(*g_pair))
    m, t = ref_compose(f_pair, g_pair)
    assert (composed.m, composed.t) == (m, t)
    assert composed == AffineMap(m, t)


@given(affine_pairs())
@SETTINGS
def test_affine_invert_matches_reference(pair):
    m, t = pair
    f = AffineMap(m, t)
    if m[0][0] * m[1][1] == m[0][1] * m[1][0]:
        try:
            f.invert()
        except CollinearTarget:
            return
        raise AssertionError("singular map inverted")
    inv_m, inv_t = ref_invert(m, t)
    inverse = f.invert()
    assert (inverse.m, inverse.t) == (inv_m, inv_t)
    assert inverse.compose(f) == AffineMap.identity()
