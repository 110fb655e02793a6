"""Intersection bodies of convex bodies of revolution: polar-zonoid tests.

Pipeline: a radial profile rho(t) (t = cosine of the vertical angle) for an
origin-symmetric convex body of revolution in R^4 or R^6 feeds a spherical
Radon transform, its inversion, and a second-order obstruction operator whose
sign decides whether the intersection body is provably NOT a polar zonoid.
Closed-form boundary criteria, parametric families, Monte Carlo oracles, and
a CLI sit on top.
"""

from .calculus import DEFAULT_SETTINGS, Settings
from .criteria import (CriterionReport, check_for_dimension, cor6_check,
                       flat_top_check, prop1_check, prop4_check)
from .errors import (DomainError, FlatTopRequired, InsufficientSamples,
                     InvalidBracket, InvalidParam, NoConvergence,
                     ProfileFormatError, SideRequired, SmoothnessError)
from .families import (FAMILY_NAMES, FamilySpec, SweepResult, instantiate,
                       lp_threshold, sweep)
from .oracle import (NegativityCertificate, SectionEstimate, field_sign_scan,
                     mc_section_volume, section_ratio_report)
from .profile import (BodyOfRevolution, Breakpoint, ConvexityReport,
                      DerivedProfile, Piece, RadialProfile,
                      classify_breakpoints, parse_prefix, profile_from_json,
                      validate_convexity)
from .transform import (ObstructionField, box_operator, h_fn, h_jet,
                        intersection_radial, inverse_radon, obstruction_field,
                        reciprocal_intersection_profile)

__version__ = "0.1.0"

__all__ = [
    "BodyOfRevolution", "Breakpoint", "ConvexityReport", "CriterionReport",
    "DEFAULT_SETTINGS", "DerivedProfile", "DomainError", "FAMILY_NAMES",
    "FamilySpec", "FlatTopRequired", "InsufficientSamples", "InvalidBracket",
    "InvalidParam", "NegativityCertificate", "NoConvergence",
    "ObstructionField", "Piece", "ProfileFormatError", "RadialProfile",
    "SectionEstimate", "Settings", "SideRequired", "SmoothnessError",
    "SweepResult", "box_operator", "check_for_dimension",
    "classify_breakpoints", "cor6_check", "field_sign_scan",
    "flat_top_check", "h_fn", "h_jet", "instantiate", "intersection_radial",
    "inverse_radon", "lp_threshold", "mc_section_volume",
    "obstruction_field", "parse_prefix", "profile_from_json", "prop1_check",
    "prop4_check", "reciprocal_intersection_profile", "section_ratio_report",
    "sweep", "validate_convexity", "__version__",
]
