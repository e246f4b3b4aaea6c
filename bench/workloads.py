"""The three workloads: their seeded inputs, the timed op, and its checks.

Each op is one unit of user work done through ceviangeo's public surface;
its check runs untimed afterwards and recomputes the expected results with
the independent arithmetic in oracle.py.
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
from fractions import Fraction
from typing import Iterator, NamedTuple

from ceviangeo import cli, configuration, sampling, svgfig
from ceviangeo.affine import AffineMap
from ceviangeo.projective import HPoint
from ceviangeo.triangle import Bary, Triangle

import oracle

# Numerator and denominator bits of every coordinate in a tall document.
# The sampler stays at or below 22 bits in everything it derives.
DOC_BITS = 64


def coord_bits(cfg) -> int:
    """Largest integer bit-height among the named points and map entries."""

    def bits(value) -> int:
        if isinstance(value, tuple):
            return max((bits(v) for v in value), default=0)
        if isinstance(value, (HPoint, Bary)):
            return max(abs(c).bit_length() for c in value.coords)
        if isinstance(value, Triangle):
            return bits(value.vertices)
        if isinstance(value, AffineMap):
            entries = (*value.m[0], *value.m[1], *value.t)
            return max(max(abs(q.numerator).bit_length(), q.denominator.bit_length())
                       for q in entries)
        return 0

    return max(bits(getattr(cfg, f.name)) for f in dataclasses.fields(cfg))


class Checked(NamedTuple):
    problems: list
    verdicts: tuple = ()
    bits: int = 0
    passed: int = 0
    skipped: int = 0
    doc_bytes: int = 0


class SweepItem(NamedTuple):
    index: int
    stratum: str
    seed: int


class Sweep:
    """`ceviangeo check --n 1` on one sampled configuration per op.

    Strata rotate in a fixed order, and runs end on whole rounds, so every
    run holds the same mix.
    """

    def __init__(self, strata: tuple[str, ...]) -> None:
        self.strata = strata
        self.round_size = len(strata)

    def inputs(self, seed: int) -> Iterator[SweepItem]:
        rng = random.Random(seed)
        index = 0
        while True:
            yield SweepItem(index, self.strata[index % self.round_size], rng.getrandbits(31))
            index += 1

    def op(self, item: SweepItem):
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(["check", "--seed", str(item.seed), "--n", "1",
                         "--stratum", item.stratum], out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    def check(self, item: SweepItem, output) -> Checked:
        code, text, err = output
        cfg = sampling.sample_configurations(
            item.seed, 1, sampling.Stratum(item.stratum))[0]
        named = {"P_bary": cfg.P_bary.coords}
        for key in ("P_prime", "Q", "Q_prime", "X"):
            named[key] = getattr(cfg, key).coords
            named[key + "_bary"] = getattr(cfg, key + "_bary").coords
        vertices = [v.to_xy() for v in cfg.triangle.vertices]
        problems, (u, v, w) = oracle.check_configuration(
            item.stratum, vertices, cfg.P.coords, named)
        if problems:
            return Checked(problems)
        report_problems, verdicts = oracle.check_report(
            item.seed, code, text,
            oracle.predicted_skips(u, v, w, oracle.side_squares(vertices)))
        if err:
            report_problems.append(f"stderr: {err.strip()}")
        statuses = [s for _, s in verdicts]
        return Checked(report_problems, verdicts, coord_bits(cfg),
                       statuses.count("PASS"), statuses.count("SKIPPED"))


class DocItem(NamedTuple):
    index: int
    text: str
    vertices: tuple
    bary: tuple


def _tall_rational(rng: random.Random) -> Fraction:
    num = 0
    while num == 0:
        num = rng.getrandbits(DOC_BITS) - (1 << (DOC_BITS - 1))
    return Fraction(num, rng.getrandbits(DOC_BITS) | 1)


class Documents:
    """`derive` plus all seven figures on a document with tall coordinates."""

    round_size = 1

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def inputs(self, seed: int) -> Iterator[DocItem]:
        rng = random.Random(seed)
        index = 0
        while True:
            vertices = tuple((_tall_rational(rng), _tall_rational(rng)) for _ in range(3))
            (ax, ay), (bx, by), (cx, cy) = vertices
            if (bx - ax) * (cy - ay) == (by - ay) * (cx - ax):
                continue
            bary = tuple(_tall_rational(rng) for _ in range(3))
            if oracle.flags_of(*bary):
                continue
            text = json.dumps({"triangle": [[str(x), str(y)] for x, y in vertices],
                               "point": {"bary": [str(c) for c in bary]}})
            yield DocItem(index, text, vertices, bary)
            index += 1

    def _derive(self, text: str):
        triangle, p = cli.parse_document(text)
        cfg = configuration.build_configuration(triangle, p)
        derived = self.tracer.span("cli.dumps", json.dumps, cli.derive_document(cfg),
                                   sort_keys=True, indent=2) + "\n"
        return cfg, derived

    def op(self, item: DocItem):
        cfg, derived = self._derive(item.text)
        svgs = [svgfig.render_figure(cfg, fid) for fid in svgfig.FIGURE_IDS]
        return cfg, derived, svgs

    def check(self, item: DocItem, output) -> Checked:
        cfg, derived, svgs = output
        cfg_again, derived_again = self._derive(item.text)
        svgs_again = [svgfig.render_figure(cfg_again, fid) for fid in svgfig.FIGURE_IDS]
        problems = oracle.check_document(item.vertices, item.bary, derived,
                                         derived_again, svgs, svgs_again)
        return Checked(problems, bits=coord_bits(cfg), doc_bytes=len(derived.encode()))


def make(name: str, tracer):
    if name == "sweep-generic":
        return Sweep(("generic",))
    if name == "sweep-degenerate":
        return Sweep(("on-steiner", "p-infinite", "on-median"))
    if name == "documents-tall":
        return Documents(tracer)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-generic", "sweep-degenerate", "documents-tall")
