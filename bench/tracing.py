"""Spans around the calls into each ceviangeo layer, recorded from outside.

The tracer replaces the layers' public functions (and a few methods and
constructors) with wrappers, in every ceviangeo module namespace that holds
them, so calls between layers are caught too.  Each wrapper records a span
(name, start, end, parent, op id); spans of the first SPAN_OPS ops are kept
in memory and written out when the run ends, while per-name totals, call
counts and per-layer self time are summed for every op.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter_ns

SPAN_OPS = 20

# (module, attribute) -> span name; "Class.method" patches the class.
FUNCTIONS = {
    ("sampling", "sample_configuration"): "sampling.sample_configuration",
    ("configuration", "build_configuration"): "configuration.build_configuration",
    ("theorems", "run_suite"): "theorems.run_suite",
    ("conjugacy", "cyclocevian"): "conjugacy.cyclocevian",
    ("conjugacy", "formula_one"): "conjugacy.formula_one",
    ("conjugacy", "formula_two"): "conjugacy.formula_two",
    ("conjugacy", "ceva_conjugate"): "conjugacy.ceva_conjugate",
    ("conic", "circle_through_three"): "conic.circle_through_three",
    ("affine", "from_correspondence"): "affine.from_correspondence",
    ("affine", "fixed_points"): "affine.fixed_points",
    ("affine", "AffineMap.apply"): "affine.apply",
    ("affine", "AffineMap.compose"): "affine.compose",
    ("affine", "AffineMap.invert"): "affine.invert",
    ("triangle", "Triangle.__init__"): "triangle.Triangle",
    ("triangle", "point_to_bary"): "triangle.point_to_bary",
    ("triangle", "bary_to_point"): "triangle.bary_to_point",
    ("triangle", "cevian_triangle"): "triangle.cevian_triangle",
    ("triangle", "classify_point"): "triangle.classify_point",
    ("projective", "HPoint.__init__"): "projective.HPoint",
    ("projective", "join"): "projective.join",
    ("projective", "meet"): "projective.meet",
    ("projective", "collinear"): "projective.collinear",
    ("projective", "midpoint"): "projective.midpoint",
    ("cli", "main"): "cli.main",
    ("cli", "parse_document"): "cli.parse_document",
    ("cli", "derive_document"): "cli.derive_document",
}

# These take their span name from an argument: the statement id or figure id.
NAMED_BY_ARGUMENT = {
    ("theorems", "check"): ("theorems", 0),
    ("svgfig", "render_figure"): ("svgfig", 1),
}


class Tracer:
    """Span recorder; `on` gates recording so untimed checks stay untraced."""

    def __init__(self) -> None:
        self.on = False
        self.op_id = -1
        self.spans: list = []
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self._stack: list = []
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list = []

    # ---------------------------------------------------------- recording

    def span(self, name: str, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        if not self.on:
            return fn(*args, **kwargs)
        keep = self.op_id < SPAN_OPS
        sid = -1
        if keep:
            sid = len(self.spans)
            self.spans.append(None)
        frame = [name, 0, sid]
        parent = self._stack[-1][2] if self._stack else -1
        self._stack.append(frame)
        self._depth[name] += 1
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - start
            self._depth[name] -= 1
            if not self._depth[name]:
                self.inclusive_ns[name] += duration
            self.calls[name] += 1
            self.self_ns[name.split(".", 1)[0]] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if keep:
                self.spans[sid] = (name, start, end, parent, self.op_id)

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _named_wrapper(self, layer: str, position: int, fn):
        def traced(*args, **kwargs):
            return self.span(f"{layer}.{args[position]}", fn, *args, **kwargs)
        return traced

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every traced callable wherever a ceviangeo module binds it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "ceviangeo" or name.startswith("ceviangeo.")}
        for module, attr in [*FUNCTIONS, *NAMED_BY_ARGUMENT]:
            owner = modules[f"ceviangeo.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrapper(FUNCTIONS[(module, attr)], original))
                self._restore.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            if (module, attr) in NAMED_BY_ARGUMENT:
                wrapped = self._named_wrapper(*NAMED_BY_ARGUMENT[(module, attr)], original)
            else:
                wrapped = self._wrapper(FUNCTIONS[(module, attr)], original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # ---------------------------------------------------------- output

    def write(self, path: str, extra: dict) -> None:
        """Kept spans as JSON lines after one header line of summary data."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(extra, sort_keys=True) + "\n")
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "op": op}) + "\n")
