"""Command-line surface: derive named points, run the statement suite, draw figures.

Machine-readable output keeps every coordinate as an exact rational string
("num/den", denominator omitted when 1); diagnostics go to standard error.
Exit codes: 0 success / all pass, 1 statement failure, 2 usage or hypothesis
error.

Input coordinates are bounded: a coordinate string has at most
MAX_COORD_CHARS characters, a decimal exponent of at most MAX_COORD_DIGITS in
magnitude, and a value whose numerator and denominator have at most
MAX_COORD_DIGITS decimal digits each.  The exponent is checked on the string,
before any power is formed.  Derived coordinates grow to about fifteen times
the input height, so the bound keeps them well below Python's limit on
int-to-str conversion.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence, TextIO

from .affine import AffineMap
from .configuration import Configuration, build_configuration
from .errors import FigureUnavailable, GeometryError, HypothesisViolated
from .projective import HPoint
from .sampling import Stratum, sample_configurations
from .svgfig import FIGURE_IDS, render_figure
from .theorems import REGISTRY, Status, run_suite
from .triangle import Bary, Triangle, bary_to_point, point_to_bary

_USAGE_ERROR = 2

MAX_COORD_DIGITS = 100
MAX_COORD_CHARS = 4 * MAX_COORD_DIGITS
_COORD_LIMIT = 10 ** MAX_COORD_DIGITS
_EXPONENT = re.compile(r"[eE]\s*([-+]?\d[\d_]*)")


class DocumentError(ValueError):
    """Input document malformed or geometrically inadmissible."""


def _too_big(where: str) -> DocumentError:
    return DocumentError(
        f"{where}: numerator and denominator may have at most {MAX_COORD_DIGITS} digits")


def _fraction(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise DocumentError(f"{where}: expected an exact rational string, got {value!r}")
    if isinstance(value, str):
        if len(value) > MAX_COORD_CHARS:
            raise DocumentError(f"{where}: longer than {MAX_COORD_CHARS} characters")
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent.group(1).replace("_", ""))) > MAX_COORD_DIGITS:
            raise _too_big(where)
    try:
        q = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{where}: {exc}") from exc
    if abs(q.numerator) >= _COORD_LIMIT or q.denominator >= _COORD_LIMIT:
        raise _too_big(where)
    return q


def _rational(q: Fraction) -> str:
    return str(Fraction(q))


def parse_document(text: str) -> tuple[Triangle, HPoint]:
    """ConfigDocument JSON -> (triangle, pivot point)."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also integer literals past the int-to-str limit
        raise DocumentError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("input document must be a JSON object")
    triangle_spec = doc.get("triangle")
    if (not isinstance(triangle_spec, list) or len(triangle_spec) != 3
            or any(not isinstance(v, list) or len(v) != 2 for v in triangle_spec)):
        raise DocumentError('"triangle" must be three [x, y] vertex pairs')
    vertices = [
        (_fraction(v[0], f"triangle[{i}][0]"), _fraction(v[1], f"triangle[{i}][1]"))
        for i, v in enumerate(triangle_spec)
    ]
    try:
        triangle = Triangle.from_xy(*vertices)
    except GeometryError as exc:
        raise DocumentError(str(exc)) from exc
    point_spec = doc.get("point")
    if not isinstance(point_spec, dict) or len(point_spec.keys() & {"bary", "cart"}) != 1:
        raise DocumentError('"point" must carry exactly one of "bary" or "cart"')
    if "bary" in point_spec:
        coords = point_spec["bary"]
        if not isinstance(coords, list) or len(coords) != 3:
            raise DocumentError('"point.bary" must be a [u, v, w] triple')
        try:
            bary = Bary(*(_fraction(c, f"point.bary[{i}]") for i, c in enumerate(coords)))
        except GeometryError as exc:
            raise DocumentError(f"point.bary: {exc}") from exc
        p = bary_to_point(triangle, bary)
    else:
        coords = point_spec["cart"]
        if not isinstance(coords, list) or len(coords) != 2:
            raise DocumentError('"point.cart" must be an [x, y] pair')
        p = HPoint(_fraction(coords[0], "point.cart[0]"),
                   _fraction(coords[1], "point.cart[1]"), 1)
    return triangle, p


def _point_doc(t: Triangle, p: Optional[HPoint]) -> Optional[dict[str, Any]]:
    if p is None:
        return None
    doc: dict[str, Any] = {
        "homogeneous": [str(c) for c in p.coords],
        "bary": [str(c) for c in point_to_bary(t, p).coords],
        "infinite": p.is_infinite,
    }
    if p.is_infinite:
        doc["cart"] = None
    else:
        x, y = p.to_xy()
        doc["cart"] = [_rational(x), _rational(y)]
    return doc


def _map_doc(m: AffineMap) -> dict[str, Any]:
    return {
        "matrix": [[_rational(v) for v in row] for row in m.m],
        "translation": [_rational(v) for v in m.t],
    }


def derive_document(cfg: Configuration) -> dict[str, Any]:
    """The machine-readable mirror of the configuration's named fields."""
    t = cfg.triangle
    pt = lambda p: _point_doc(t, p)
    family = lambda pts: [pt(p) for p in pts]
    return {
        "triangle": {"A": pt(t.A), "B": pt(t.B), "C": pt(t.C)},
        "flags": sorted(flag.value for flag in cfg.flags),
        "P": pt(cfg.P), "G": pt(cfg.G),
        "P_prime": pt(cfg.P_prime), "Q": pt(cfg.Q), "Q_prime": pt(cfg.Q_prime),
        "X": pt(cfg.X), "X_prime": pt(cfg.X_prime),
        "D": family(cfg.D), "E": family(cfg.E), "F": family(cfg.F),
        "Ai": family(cfg.Ai), "Bi": family(cfg.Bi), "Ci": family(cfg.Ci),
        "M_d": pt(cfg.M_d), "M_e": pt(cfg.M_e), "M_f": pt(cfg.M_f),
        "M_d_prime": pt(cfg.M_d_prime), "M_e_prime": pt(cfg.M_e_prime),
        "M_f_prime": pt(cfg.M_f_prime),
        "N1": pt(cfg.N1), "R": pt(cfg.R), "R_prime": pt(cfg.R_prime), "M": pt(cfg.M),
        "A0_prime": pt(cfg.A0_prime), "B0_prime": pt(cfg.B0_prime),
        "C0_prime": pt(cfg.C0_prime),
        "O_a": pt(cfg.O_a), "O_b": pt(cfg.O_b), "O_c": pt(cfg.O_c),
        "T_P": _map_doc(cfg.T_P), "T_P_prime": _map_doc(cfg.T_P_prime),
        "S": _map_doc(cfg.S), "K_map": _map_doc(cfg.K_map),
        "K_inv_map": _map_doc(cfg.K_inv_map),
    }


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_derive(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    try:
        triangle, p = parse_document(_read_input(args.input))
        cfg = build_configuration(triangle, p)
    except (DocumentError, HypothesisViolated, OSError) as exc:
        print(f"error: {exc}", file=err)
        return _USAGE_ERROR
    out.write(json.dumps(derive_document(cfg), sort_keys=True, indent=2))
    out.write("\n")
    return 0


def _cmd_check(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    if args.n <= 0:
        print(f"error: --n must be a positive number of configurations, got {args.n}", file=err)
        return _USAGE_ERROR
    ids: Optional[list[str]] = None
    if args.ids is not None:
        ids = [token.strip() for token in args.ids.split(",") if token.strip()]
        unknown = [i for i in ids if i not in REGISTRY]
        if unknown or not ids:
            print(f"error: unknown statement ids: {', '.join(unknown) or '(none given)'}",
                  file=err)
            return _USAGE_ERROR
    try:
        stratum = Stratum(args.stratum)
        configs = sample_configurations(args.seed, args.n, stratum)
    except GeometryError as exc:
        print(f"error: {exc}", file=err)
        return _USAGE_ERROR
    reports = run_suite(configs, ids)
    counts = {Status.PASS: 0, Status.FAIL: 0, Status.SKIPPED: 0}
    for r in reports:
        counts[r.status] += 1
        line = f"{r.theorem_id} {r.status.value}"
        if r.status is Status.FAIL:
            line += f" (seed={r.seed}, index={r.index}) {r.witness}"
        elif r.status is Status.SKIPPED:
            line += f" (seed={r.seed}, index={r.index}) {r.reason}"
        out.write(line + "\n")
    out.write(f"summary: {len(reports)} checked, {counts[Status.PASS]} PASS, "
              f"{counts[Status.FAIL]} FAIL, {counts[Status.SKIPPED]} SKIPPED\n")
    return 1 if counts[Status.FAIL] else 0


def _cmd_figure(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    try:
        triangle, p = parse_document(_read_input(args.input))
        cfg = build_configuration(triangle, p)
        svg = render_figure(cfg, args.figure)
    except (DocumentError, HypothesisViolated, FigureUnavailable, OSError) as exc:
        print(f"error: {exc}", file=err)
        return _USAGE_ERROR
    if args.out == "-":
        out.write(svg)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ceviangeo",
        description="Exact cevian-configuration engine: derive points, "
                    "check statements, draw figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    derive = sub.add_parser("derive", help="derive all named points for a document")
    derive.add_argument("--input", required=True,
                        help="path to a configuration document, or - for stdin")

    check = sub.add_parser("check", help="run the statement suite on sampled configurations")
    check.add_argument("--seed", type=int, default=7)
    check.add_argument("--n", type=int, default=50)
    check.add_argument("--stratum", choices=[s.value for s in Stratum],
                       default=Stratum.GENERIC.value)
    check.add_argument("--ids", default=None,
                       help="comma-separated statement ids (default: all)")

    figure = sub.add_parser("figure", help="render one of the named figures as SVG")
    figure.add_argument("--input", required=True,
                        help="path to a configuration document, or - for stdin")
    figure.add_argument("--figure", required=True, metavar="ID",
                        help=f"one of: {', '.join(FIGURE_IDS)}")
    figure.add_argument("--out", required=True,
                        help="output SVG path, or - for stdout")
    return parser


def main(argv: Optional[Sequence[str]] = None,
         out: TextIO = sys.stdout, err: TextIO = sys.stderr) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"derive": _cmd_derive, "check": _cmd_check, "figure": _cmd_figure}
    try:
        return handlers[args.command](args, out, err)
    except ValueError as exc:  # GeometryError included: never exit with a traceback
        print(f"error: {exc}", file=err)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
