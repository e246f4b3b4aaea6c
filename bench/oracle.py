"""Independent checks of the engine's outputs.

Nothing here calls into ceviangeo: every expected value is recomputed from
the raw inputs with plain integers and fractions.Fraction, so a wrong answer
from the engine cannot also be the benchmark's reference.  Each check
returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from fractions import Fraction

STATEMENT_IDS = (
    "T2_1", "C2_2", "T2_3", "T2_4", "T2_5", "C2_6", "T2_7", "L3_1", "T3_2",
    "C3_3", "L3_4", "PI_INV", "T3_5", "T3_6", "T3_7", "T3_8", "T3_9",
    "C3_10", "T3_11", "R3_11", "T3_12", "T3_13", "C3_14", "F1_F2",
)

SKIPPED_AT_INFINITY = frozenset(
    {"T2_5", "C2_6", "T2_7", "T3_11", "R3_11", "T3_12", "C3_14", "F1_F2"})

_SVG_ROOT = "{http://www.w3.org/2000/svg}svg"
FIGURE_COUNT = 7

DOCUMENT_KEYS = frozenset({
    "A0_prime", "Ai", "B0_prime", "Bi", "C0_prime", "Ci", "D", "E", "F", "G",
    "K_inv_map", "K_map", "M", "M_d", "M_d_prime", "M_e", "M_e_prime", "M_f",
    "M_f_prime", "N1", "O_a", "O_b", "O_c", "P", "P_prime", "Q", "Q_prime",
    "R", "R_prime", "S", "T_P", "T_P_prime", "X", "X_prime", "flags", "triangle",
})


# ------------------------------------------------------------ exact kernel


def proportional(a, b) -> bool:
    """Two nonzero triples name the same projective point."""
    if not any(a) or not any(b):
        return False
    return (a[1] * b[2] == a[2] * b[1] and a[2] * b[0] == a[0] * b[2]
            and a[0] * b[1] == a[1] * b[0])


def _det3(m) -> Fraction:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _frame(vertices):
    """Columns (x, y, 1) of the vertices: barycentrics -> homogeneous xy1."""
    return [[Fraction(v[0]) for v in vertices],
            [Fraction(v[1]) for v in vertices],
            [Fraction(1)] * 3]


def bary_of(vertices, point):
    """Barycentrics of a homogeneous point (x : y : z) by Cramer's rule."""
    m = _frame(vertices)
    d = _det3(m)
    out = []
    for k in range(3):
        mk = [row[:] for row in m]
        for i in range(3):
            mk[i][k] = Fraction(point[i])
        out.append(_det3(mk) / d)
    return tuple(out)


def point_of(vertices, bary):
    """Homogeneous point (x : y : z) with the given barycentrics."""
    m = _frame(vertices)
    return tuple(sum(m[i][k] * bary[k] for k in range(3)) for i in range(3))


def cart_of(vertices, bary):
    """Cartesian (x, y) of an ordinary point given in barycentrics."""
    x, y, z = point_of(vertices, bary)
    return x / z, y / z


def closed_forms(u, v, w) -> dict:
    """P', Q, Q' and X of the pivot (u : v : w) as barycentric triples."""
    x, y, z = u * (v + w), v * (w + u), w * (u + v)
    return {
        "P_prime": (v * w, w * u, u * v),
        "Q": (x, y, z),
        "Q_prime": (v + w, w + u, u + v),
        "X": (x * (-x / u + y / v + z / w),
              y * (x / u - y / v + z / w),
              z * (x / u + y / v - z / w)),
    }


def flags_of(u, v, w) -> frozenset:
    """Degeneracy flags of a pivot, named as the sampler's strata pin them."""
    flags = set()
    if 0 in (u, v, w):
        flags.add("ON_SIDELINE")
    if u + v == 0 or v + w == 0 or w + u == 0:
        flags.add("ON_ANTICOMPLEMENTARY_SIDE")
    if u == v or v == w or w == u:
        flags.add("ON_MEDIAN")
    if u * v + v * w + w * u == 0:
        flags.add("ON_STEINER")
    if u + v + w == 0:
        flags.add("AT_INFINITY")
    return frozenset(flags)


STRATUM_FLAGS = {
    "generic": frozenset(),
    "on-steiner": frozenset({"ON_STEINER"}),
    "p-infinite": frozenset({"AT_INFINITY"}),
    "on-median": frozenset({"ON_MEDIAN"}),
}


def side_squares(vertices) -> tuple:
    """Squared side lengths (a^2, b^2, c^2) opposite A, B, C."""
    (ax, ay), (bx, by), (cx, cy) = [(Fraction(x), Fraction(y)) for x, y in vertices]
    return ((bx - cx) ** 2 + (by - cy) ** 2, (cx - ax) ** 2 + (cy - ay) ** 2,
            (ax - bx) ** 2 + (ay - by) ** 2)


def cyclocevian_at_vertex(u, v, w, sides2) -> bool:
    """The cyclocevian conjugate of an ordinary (u : v : w) is a vertex.

    It is the isotomic conjugate of the anticomplement of the isogonal
    conjugate of Q, so it is a vertex exactly when that anticomplement has
    a zero coordinate.  Unlike the rest of the skip profile this depends on
    the triangle's shape, through the side lengths.
    """
    x, y, z = u * (v + w), v * (w + u), w * (u + v)
    a2, b2, c2 = sides2
    i, j, k = a2 * y * z, b2 * z * x, c2 * x * y
    return 0 in (j + k - i, k + i - j, i + j - k)


def predicted_skips(u, v, w, sides2) -> frozenset:
    """Statements whose hypotheses the pivot (u : v : w) does not meet."""
    if u + v + w == 0:
        return SKIPPED_AT_INFINITY
    if u * v + v * w + w * u == 0:
        skips = {"T3_11"}
    else:
        skips = {"R3_11", "C3_14"}
        # The A-median (s : t : t) meets E1F1 at (uw + uv : vw : vw).
        if u * (v + w) + 2 * v * w == 0:
            skips.add("L3_4")
    if cyclocevian_at_vertex(u, v, w, sides2):
        skips |= {"T2_7", "F1_F2"}
    return frozenset(skips)


# ------------------------------------------------------------ sweeps


def check_report(seed: int, code: int, text: str, expected_skips) -> tuple[list, list]:
    """Problems with one `check --n 1` report, and its (id, status) verdicts."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("summary: "):
        return problems + ["no summary line"], []
    verdicts = []
    for line in lines[:-1]:
        parts = line.split(" ", 2)
        if len(parts) < 2:
            problems.append(f"malformed report line {line!r}")
            continue
        verdicts.append((parts[0], parts[1]))
        if parts[1] != "PASS" and not line.startswith(
                f"{parts[0]} {parts[1]} (seed={seed}, index=0)"):
            problems.append(f"line without its fingerprint: {line!r}")
    ids = [v[0] for v in verdicts]
    if sorted(ids) != sorted(STATEMENT_IDS):
        problems.append(f"report covers {ids}, expected each of the 24 ids once")
    statuses = dict(verdicts)
    failed = sorted(i for i, s in statuses.items() if s == "FAIL")
    if failed:
        problems.append(f"FAIL on {failed}")
    unknown = sorted(s for s in statuses.values() if s not in ("PASS", "FAIL", "SKIPPED"))
    if unknown:
        problems.append(f"unknown statuses {unknown}")
    skipped = frozenset(i for i, s in statuses.items() if s == "SKIPPED")
    if skipped != expected_skips:
        problems.append(f"SKIPPED {sorted(skipped)}, hypotheses predict {sorted(expected_skips)}")
    n_skip = len(expected_skips)
    summary = (f"summary: 24 checked, {24 - n_skip} PASS, 0 FAIL, {n_skip} SKIPPED")
    if lines[-1] != summary:
        problems.append(f"summary {lines[-1]!r}, expected {summary!r}")
    return problems, verdicts


def check_configuration(stratum: str, vertices, pivot, named) -> tuple[list, tuple]:
    """Problems with a sampled configuration, and the pivot's barycentrics.

    vertices are the triangle's Cartesian vertices, pivot the homogeneous
    pivot, and named maps "P_bary", "P_prime", "Q", "Q_prime", "X" (and
    their "_bary" forms) to the engine's homogeneous triples.
    """
    problems = []
    u, v, w = bary_of(vertices, pivot)
    flags = flags_of(u, v, w)
    if flags != STRATUM_FLAGS[stratum]:
        problems.append(f"pivot flags {sorted(flags)} outside stratum {stratum}")
        return problems, (u, v, w)
    if not proportional(named["P_bary"], (u, v, w)):
        problems.append(f"P_bary {named['P_bary']} != ({u} : {v} : {w})")
    for key, bary in closed_forms(u, v, w).items():
        if not proportional(named[key + "_bary"], bary):
            problems.append(f"{key}_bary {named[key + '_bary']} != closed form {bary}")
        if not proportional(named[key], point_of(vertices, bary)):
            problems.append(f"{key} {named[key]} != closed form {point_of(vertices, bary)}")
    return problems, (u, v, w)


# ------------------------------------------------------------ documents


def _point_docs(node, path="$"):
    if isinstance(node, dict):
        if "homogeneous" in node:
            yield path, node
            return
        for key, value in node.items():
            yield from _point_docs(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _point_docs(value, f"{path}[{i}]")


def _apply(mp, xy):
    m, t = mp
    return (m[0][0] * xy[0] + m[0][1] * xy[1] + t[0],
            m[1][0] * xy[0] + m[1][1] * xy[1] + t[1])


def _compose(f, g):
    """f after g."""
    (a, b), _ = f
    (c, d), tg = g
    m = ((a[0] * c[0] + a[1] * d[0], a[0] * c[1] + a[1] * d[1]),
         (b[0] * c[0] + b[1] * d[0], b[0] * c[1] + b[1] * d[1]))
    return m, _apply(f, tg)


def _map(doc):
    return (tuple(tuple(Fraction(x) for x in row) for row in doc["matrix"]),
            tuple(Fraction(x) for x in doc["translation"]))


def check_document(vertices, bary, derived: str, derived_again: str,
                   svgs, svgs_again) -> list:
    """Problems with one derived document and its seven figures.

    vertices and bary are the Fractions the input document was written
    from; derived is the `derive` output text.
    """
    problems = []
    if derived != derived_again:
        problems.append("two derives of one document differ")
    try:
        doc = json.loads(derived)
    except ValueError as exc:
        return problems + [f"derive output is not JSON: {exc}"]
    if set(doc) != DOCUMENT_KEYS:
        return problems + [f"document keys {sorted(set(doc) ^ DOCUMENT_KEYS)} differ"]
    for path, pt in _point_docs(doc):
        b = tuple(Fraction(c) for c in pt["bary"])
        h = tuple(int(c) for c in pt["homogeneous"])
        if not proportional(h, point_of(vertices, b)):
            problems.append(f"{path}: homogeneous {h} disagrees with bary {b}")
        if sum(b) == 0:
            if pt["cart"] is not None or not pt["infinite"]:
                problems.append(f"{path}: infinite point carries cart {pt['cart']}")
            continue
        cart = tuple(Fraction(c) for c in pt["cart"]) if pt["cart"] is not None else None
        if pt["infinite"] or cart != cart_of(vertices, b):
            problems.append(f"{path}: cart {pt['cart']} != {cart_of(vertices, b)}")
    for key, expected in (("P", bary), *closed_forms(*bary).items()):
        got = tuple(Fraction(c) for c in doc[key]["bary"])
        if not proportional(got, expected):
            problems.append(f"{key} bary {got} != closed form {expected}")
    t_p = _map(doc["T_P"])
    traces = [doc[k][1] for k in ("D", "E", "F")]
    for vertex, trace in zip(vertices, traces):
        image = _apply(t_p, tuple(Fraction(c) for c in vertex))
        if trace["cart"] is None or image != tuple(Fraction(c) for c in trace["cart"]):
            problems.append(f"T_P sends {vertex} to {image}, not to {trace['cart']}")
    composite = _compose(t_p, _map(doc["T_P_prime"]))
    if composite != _map(doc["S"]):
        problems.append(f"S {doc['S']} != T_P o T_P' {composite}")
    if len(svgs) != FIGURE_COUNT or len(svgs_again) != FIGURE_COUNT:
        problems.append(f"{len(svgs)} and {len(svgs_again)} figures, not {FIGURE_COUNT}")
    for i, (svg, again) in enumerate(zip(svgs, svgs_again)):
        if svg != again:
            problems.append(f"figure {i} renders differently twice")
        try:
            root = ET.fromstring(svg.encode("utf-8"))
        except ET.ParseError as exc:
            problems.append(f"figure {i} is not XML: {exc}")
            continue
        if root.tag != _SVG_ROOT:
            problems.append(f"figure {i} root is {root.tag}")
    return problems
