"""Exact tools for four-dimensional ellipsoid embedding bounds.

ECH capacity sequences, Ehrhart lattice counts of dilated rational triangles,
quadratic-surd accumulation points, and the verification suites that check
every bound lemma and numeric table at desk scale.  Arithmetic is exact
throughout: rationals, quadratic surds, and adaptive rational enclosures for
irrational parameters.
"""

from .analysis import (
    BoundCase,
    BulletBound,
    Case43Report,
    ClaimsReport,
    LemmaCheck,
    NamedCheck,
    ScanRow,
    TheoremReport,
    bound_case,
    bullet_lower_bound,
    bullets_for,
    intersection_points,
    scan_rows,
    theorem_report,
    verify_43_case,
    verify_claim_steps,
    verify_exceptional,
    verify_nicebound,
)
from .capacities import (
    MAX_TERMS,
    CapacitySequence,
    capacity,
    capacity_lower_bound,
    capacity_prefix,
)
from .core import (
    AccumulationData,
    Ellipsoid,
    WeightExpansion,
    accumulation_point,
    negative_weight_sequence,
    per_vol,
    weight_sequence,
)
from .ehrhart import (
    DominationVerdict,
    FitConsistencyError,
    QuasiPolynomial,
    RightTriangle,
    SliceCounts,
    SliceInequalityReport,
    boundary_lattice_count,
    ehrhart_dominates,
    embedding_decision,
    fit_quasi_polynomial,
    parameter_triangle,
    region_counts,
    triangle_count,
    verify_diff_identity,
    verify_slice_inequality,
)
from .intervals import AdaptiveScalar, Interval, PrecisionError
from .render import decimal_str
from .surd import QuadraticSurd

__version__ = "0.1.0"

__all__ = [
    "MAX_TERMS",
    "AccumulationData",
    "AdaptiveScalar",
    "BoundCase",
    "BulletBound",
    "CapacitySequence",
    "Case43Report",
    "ClaimsReport",
    "DominationVerdict",
    "Ellipsoid",
    "FitConsistencyError",
    "Interval",
    "LemmaCheck",
    "NamedCheck",
    "PrecisionError",
    "QuadraticSurd",
    "QuasiPolynomial",
    "RightTriangle",
    "ScanRow",
    "SliceCounts",
    "SliceInequalityReport",
    "TheoremReport",
    "WeightExpansion",
    "accumulation_point",
    "bound_case",
    "boundary_lattice_count",
    "bullet_lower_bound",
    "bullets_for",
    "capacity",
    "capacity_lower_bound",
    "capacity_prefix",
    "decimal_str",
    "ehrhart_dominates",
    "embedding_decision",
    "fit_quasi_polynomial",
    "intersection_points",
    "negative_weight_sequence",
    "parameter_triangle",
    "per_vol",
    "region_counts",
    "scan_rows",
    "theorem_report",
    "triangle_count",
    "verify_43_case",
    "verify_claim_steps",
    "verify_diff_identity",
    "verify_exceptional",
    "verify_nicebound",
    "verify_slice_inequality",
    "weight_sequence",
]
