"""SVG renderings of the classical figures of the configuration.

All geometry stays exact until the final coordinate formatting; decimals
appear only in the emitted SVG attributes.  Output is deterministic for a
fixed configuration.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional

from .configuration import Configuration
from .conic import circle_through_three
from .errors import FigureUnavailable, GeometryError
from .projective import HLine, HPoint, join, signed_ratio
from .triangle import bary_to_point, cevian_triangle, trilinear_polar

_SIZE = 640
_MARGIN = Fraction(12, 100)

_STYLES = {
    "side": 'stroke="#333333" stroke-width="1.6" fill="none"',
    "aux": 'stroke="#999999" stroke-width="1" fill="none"',
    "accent": 'stroke="#c0392b" stroke-width="1.3" fill="none"',
    "accent2": 'stroke="#2980b9" stroke-width="1.3" fill="none"',
    "dashed": 'stroke="#c0392b" stroke-width="1.2" stroke-dasharray="6 4" fill="none"',
    "dashed2": 'stroke="#999999" stroke-width="1" stroke-dasharray="4 4" fill="none"',
}

XY = tuple[Fraction, Fraction]


def _ordinary(name: str, p: Optional[HPoint]) -> XY:
    if p is None or p.is_infinite:
        raise FigureUnavailable(f"figure requires the ordinary point {name}")
    return p.to_xy()


class _Scene:
    """Accumulates exact primitives, then renders once the extent is known."""

    def __init__(self) -> None:
        self.segments: list[tuple[XY, XY, str]] = []
        self.lines: list[tuple[HLine, str]] = []
        self.circles: list[tuple[XY, float]] = []
        self.dots: list[XY] = []
        self.labels: list[tuple[XY, str]] = []
        self._anchors: list[XY] = []

    def segment(self, a: XY, b: XY, style: str = "aux") -> None:
        self.segments.append((a, b, style))
        self._anchors += [a, b]

    def polygon(self, pts: list[XY], style: str) -> None:
        for a, b in zip(pts, pts[1:] + pts[:1]):
            self.segment(a, b, style)

    def line(self, l: HLine, style: str = "dashed") -> None:
        self.lines.append((l, style))

    def circle(self, center: XY, radius: float) -> None:
        self.circles.append((center, radius))
        cx, cy = center
        r = Fraction(radius).limit_denominator(10**6)
        self._anchors += [(cx - r, cy - r), (cx + r, cy + r)]

    def mark(self, name: str, p: Optional[HPoint], label: Optional[str] = None) -> XY:
        xy = _ordinary(name, p)
        self.dots.append(xy)
        self.labels.append((xy, label if label is not None else name))
        self._anchors.append(xy)
        return xy

    # rendering

    def _bounds(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        xs = [a[0] for a in self._anchors]
        ys = [a[1] for a in self._anchors]
        minx, maxx, miny, maxy = min(xs), max(xs), min(ys), max(ys)
        spanx = maxx - minx or Fraction(1)
        spany = maxy - miny or Fraction(1)
        padx, pady = spanx * _MARGIN, spany * _MARGIN
        return minx - padx, maxx + padx, miny - pady, maxy + pady

    def render(self) -> str:
        minx, maxx, miny, maxy = self._bounds()
        scale = min(Fraction(_SIZE) / (maxx - minx), Fraction(_SIZE) / (maxy - miny))
        ox = (Fraction(_SIZE) - (maxx - minx) * scale) / 2
        oy = (Fraction(_SIZE) - (maxy - miny) * scale) / 2

        def tx(p: XY) -> tuple[float, float]:
            x = ox + (p[0] - minx) * scale
            y = Fraction(_SIZE) - (oy + (p[1] - miny) * scale)
            return float(x), float(y)

        def fmt(v: float) -> str:
            return f"{v:.2f}"

        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        ]
        for l, style in self.lines:
            clipped = _clip(l, (minx, maxx, miny, maxy))
            if clipped is None:
                continue
            (x1, y1), (x2, y2) = (tx(clipped[0]), tx(clipped[1]))
            parts.append(f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" '
                         f'y2="{fmt(y2)}" {_STYLES[style]}/>')
        for a, b, style in self.segments:
            (x1, y1), (x2, y2) = (tx(a), tx(b))
            parts.append(f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" '
                         f'y2="{fmt(y2)}" {_STYLES[style]}/>')
        for center, radius in self.circles:
            cx, cy = tx(center)
            parts.append(f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" '
                         f'r="{fmt(radius * float(scale))}" {_STYLES["aux"]}/>')
        for xy in self.dots:
            cx, cy = tx(xy)
            parts.append(f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="3" fill="#111111"/>')
        for xy, text in self.labels:
            cx, cy = tx(xy)
            parts.append(f'<text x="{fmt(cx + 6)}" y="{fmt(cy - 6)}" '
                         f'font-family="sans-serif" font-size="13">{text}</text>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def _clip(l: HLine, bounds: tuple[Fraction, Fraction, Fraction, Fraction]) -> Optional[tuple[XY, XY]]:
    """Intersect the line a x + b y + c = 0 with the bounding rectangle."""
    minx, maxx, miny, maxy = bounds
    a, b, c = l.coeffs
    hits: list[XY] = []
    if b != 0:
        for x in (minx, maxx):
            y = Fraction(-(a * x + c), b)
            if miny <= y <= maxy:
                hits.append((x, y))
    if a != 0:
        for y in (miny, maxy):
            x = Fraction(-(b * y + c), a)
            if minx <= x <= maxx:
                hits.append((x, y))
    hits = sorted(set(hits))
    if len(hits) < 2:
        return None
    return hits[0], hits[-1]


def _sides(scene: _Scene, cfg: Configuration) -> tuple[XY, XY, XY]:
    a = scene.mark("A", cfg.triangle.A)
    b = scene.mark("B", cfg.triangle.B)
    c = scene.mark("C", cfg.triangle.C)
    scene.polygon([a, b, c], "side")
    return a, b, c


def _fig_isotomcomplement(cfg: Configuration) -> _Scene:
    scene = _Scene()
    a, b, c = _sides(scene, cfg)
    p = scene.mark("P", cfg.P)
    scene.mark("P′", cfg.P_prime)
    q = scene.mark("Q", cfg.Q)
    d1 = scene.mark("D", cfg.D[1])
    e1 = scene.mark("E", cfg.E[1])
    f1 = scene.mark("F", cfg.F[1])
    for vertex, trace in ((a, d1), (b, e1), (c, f1)):
        scene.segment(vertex, trace, "aux")
    for name_mid, mid_cfg, name_side, side_mid in (
        ("M_d", cfg.M_d, "D₀", cfg.D[0]),
        ("M_e", cfg.M_e, "E₀", cfg.E[0]),
        ("M_f", cfg.M_f, "F₀", cfg.F[0]),
    ):
        m = scene.mark(name_mid, mid_cfg)
        s = scene.mark(name_side, side_mid)
        scene.line(join(HPoint(*m, 1), HPoint(*s, 1)), "dashed")
    scene.segment(p, q, "accent2")
    return scene


def _fig_midpoint_perspectivity(cfg: Configuration) -> _Scene:
    scene = _Scene()
    a, b, c = _sides(scene, cfg)
    d1 = _ordinary("D", cfg.D[1])
    e1 = _ordinary("E", cfg.E[1])
    f1 = _ordinary("F", cfg.F[1])
    rows = (
        ("O_a", cfg.O_a, a, e1, f1, cfg.E[0], cfg.F[0], cfg.M_e, cfg.M_f),
        ("O_b", cfg.O_b, b, d1, f1, cfg.D[0], cfg.F[0], cfg.M_d, cfg.M_f),
        ("O_c", cfg.O_c, c, d1, e1, cfg.D[0], cfg.E[0], cfg.M_d, cfg.M_e),
    )
    for name, o, vertex, t1, t2, s1, s2, m1, m2 in rows:
        scene.mark(name, o)
        vx, vy = vertex
        v1 = ((vx + t1[0]) / 2, (vy + t1[1]) / 2)
        v2 = ((vx + t2[0]) / 2, (vy + t2[1]) / 2)
        scene.segment(v1, v2, "accent2")
        scene.segment(_ordinary("side midpoint", s1), _ordinary("side midpoint", s2), "aux")
        scene.segment(_ordinary("cevian midpoint", m1), _ordinary("cevian midpoint", m2), "aux")
    scene.line(trilinear_polar(cfg.ctx.medial, cfg.Q), "dashed")
    return scene


def _fig_half_turn(cfg: Configuration) -> _Scene:
    scene = _Scene()
    _sides(scene, cfg)
    named = {
        "A": cfg.triangle.A, "R": cfg.R, "M_d": cfg.M_d, "Q": cfg.Q,
        "A₀": cfg.Ai[0], "D₀": cfg.D[0], "Q′": cfg.Q_prime, "M_d′": cfg.M_d_prime,
        "R′": cfg.R_prime, "A₀′": cfg.A0_prime, "N₁": cfg.N1,
    }
    xy = {name: scene.mark(name, p) for name, p in named.items() if name != "A"}
    xy["A"] = cfg.triangle.A.to_xy()
    scene.polygon([xy[k] for k in ("A", "R", "M_d", "Q", "A₀", "D₀")], "accent2")
    scene.polygon([xy[k] for k in ("D₀", "Q′", "M_d′", "R′", "A₀′", "A")], "accent")
    for src, dst in (("A", "D₀"), ("R", "Q′"), ("M_d", "M_d′"), ("Q", "R′"), ("A₀", "A₀′")):
        scene.segment(xy[src], xy[dst], "dashed2")
    return scene


def _fig_parallel_lemma(cfg: Configuration) -> _Scene:
    scene = _Scene()
    a, _, _ = _sides(scene, cfg)
    d1 = scene.mark("D", cfg.D[1])
    e1 = scene.mark("E", cfg.E[1])
    f1 = scene.mark("F", cfg.F[1])
    a0 = scene.mark("A₀", cfg.Ai[0])
    r = signed_ratio(cfg.triangle.B, cfg.triangle.C, cfg.D[1])
    x_loc = ((f1[0] + r * e1[0]) / (1 + r), (f1[1] + r * e1[1]) / (1 + r))
    scene.dots.append(x_loc)
    scene.labels.append((x_loc, "X"))
    scene.segment(e1, f1, "aux")
    scene.segment(d1, x_loc, "accent")
    scene.segment(a, a0, "accent2")
    return scene


def _fig_fixed_point(cfg: Configuration) -> _Scene:
    scene = _Scene()
    a, b, c = _sides(scene, cfg)
    d1 = scene.mark("D", cfg.D[1])
    e1 = scene.mark("E", cfg.E[1])
    f1 = scene.mark("F", cfg.F[1])
    scene.polygon([d1, e1, f1], "accent2")
    scene.mark("P", cfg.P)
    scene.mark("Q", cfg.Q)
    for vertex, trace in ((a, d1), (b, e1), (c, f1)):
        scene.segment(vertex, trace, "aux")
    g = scene.mark("G", cfg.G)
    scene.segment(g, _ordinary("image of G", cfg.T_P.apply(cfg.G)), "dashed2")
    return scene


_PIVOT_LABELS = ("Q", "Q′", "G", "X", "P", "P′")
_TRACE_INDEX = (2, 4, 0, 5, 1, 3)
_SUB = "₀₁₂₃₄₅"


def _fig_collinearity(cfg: Configuration) -> _Scene:
    scene = _Scene()
    _sides(scene, cfg)
    pivots = (cfg.Q, cfg.Q_prime, cfg.G, cfg.X, cfg.P, cfg.P_prime)
    for i, (pivot, label) in enumerate(zip(pivots, _PIVOT_LABELS)):
        trace = cfg.D[_TRACE_INDEX[i]]
        image = cfg.Ai[i]
        apex = scene.mark(label, pivot)
        txy = scene.mark(f"D{_SUB[_TRACE_INDEX[i]]}", trace)
        scene.mark(f"A{_SUB[i]}", image)
        scene.segment(cfg.triangle.A.to_xy(), txy, "aux")
        scene.segment(txy, apex, "dashed2")
    return scene


def _fig_trace_circle(cfg: Configuration) -> _Scene:
    scene = _Scene()
    _sides(scene, cfg)
    if cfg.P.is_infinite:
        raise FigureUnavailable("figure requires the ordinary point P")
    scene.mark("P", cfg.P)
    try:
        phi = bary_to_point(cfg.triangle, cfg.cyclocevian_image)
        phi_traces = cevian_triangle(cfg.triangle, phi)
    except GeometryError as exc:
        raise FigureUnavailable(f"trace circle undefined: {exc}") from exc
    scene.mark("φ(P)", phi)
    traces = [("D", cfg.D[1]), ("E", cfg.E[1]), ("F", cfg.F[1])]
    traces += list(zip(("D′", "E′", "F′"), phi_traces))
    for name, pt in traces:
        scene.mark(name, pt)
    circle = circle_through_three(cfg.D[1], cfg.E[1], cfg.F[1])
    m00, _, m02, _, m12, m22 = circle.entries
    center = (Fraction(-m02, m00), Fraction(-m12, m00))
    r2 = (Fraction(m02) ** 2 + m12 ** 2 - m00 * m22) / (Fraction(m00) ** 2)
    scene.circle(center, math.sqrt(r2))
    return scene


_FIGURES: dict[str, Callable[[Configuration], _Scene]] = {
    "isotomcomplement": _fig_isotomcomplement,
    "midpoint_perspectivity": _fig_midpoint_perspectivity,
    "half_turn": _fig_half_turn,
    "parallel_lemma": _fig_parallel_lemma,
    "fixed_point": _fig_fixed_point,
    "collinearity": _fig_collinearity,
    "trace_circle": _fig_trace_circle,
}

FIGURE_IDS = tuple(sorted(_FIGURES))


def render_figure(cfg: Configuration, figure_id: str) -> str:
    """SVG text for one of the named figures.

    Raises FigureUnavailable when the id is unknown or a required point of
    that figure is missing or infinite for this configuration.
    """
    try:
        builder = _FIGURES[figure_id]
    except KeyError:
        raise FigureUnavailable(
            f"unknown figure {figure_id!r}; available: {', '.join(FIGURE_IDS)}") from None
    return builder(cfg).render()
