"""Exact rational plane geometry for cevian configurations.

Projective incidence over coprime integer triples, barycentric frames, conjugation
maps, affine fixed-point analysis, conics, and a machine-checked statement
suite over randomized configurations.
"""

from .affine import (
    AffineMap,
    FixedPointKind,
    FixedPointStructure,
    HomothetyClassification,
    MapShape,
    classify_homothety,
    fixed_points,
    from_correspondence,
    half_turn,
    homothety,
)
from .configuration import Configuration, build_configuration
from .conic import (
    Conic,
    ConicKind,
    circle_through_three,
    conic_through_five,
    inscribed_conic,
    polar,
    pole,
    steiner_circumellipse,
    steiner_point_sample,
)
from .conjugacy import (
    ConjugacyContext,
    anticomplement,
    ceva_conjugate,
    complement,
    cyclocevian,
    formula_one,
    formula_two,
    isogonal,
    isotomcomplement,
    isotomic,
)
from .errors import GeometryError
from .projective import (
    LINE_AT_INFINITY,
    HLine,
    HPoint,
    Scalar,
    collinear,
    concurrent,
    cross_ratio,
    harmonic_conjugate,
    join,
    meet,
    midpoint,
    parallel,
    signed_ratio,
)
from .sampling import Stratum, sample_configuration, sample_configurations
from .theorems import REGISTRY, Status, TheoremReport, check, run_suite
from .triangle import (
    Bary,
    Degeneracy,
    Triangle,
    anticevian_triangle,
    bary_to_point,
    cevian_triangle,
    classify_point,
    medial_and_anticomplementary,
    point_to_bary,
    trilinear_polar,
)

__all__ = [name for name in dir() if not name.startswith("_")]
