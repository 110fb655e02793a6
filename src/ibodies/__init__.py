"""Intersection bodies of convex bodies of revolution: polar-zonoid tests.

Pipeline: a radial profile rho(t) (t = cosine of the vertical angle) for an
origin-symmetric convex body of revolution in R^4 or R^6 feeds a spherical
Radon transform, its inversion, and a second-order obstruction operator whose
sign decides whether the intersection body is provably NOT a polar zonoid.
Closed-form boundary criteria, parametric families, Monte Carlo oracles, and
a CLI sit on top.
"""

from .criteria import (CriterionReport, check_for_dimension, cor6_check,
                       flat_top_check, flatness_curvature, prop1_check,
                       prop4_check, vamos_numerator)
from .errors import (DomainError, Divergent, FlatTopRequired,
                     InsufficientSamples, InvalidBracket, InvalidParam,
                     NoConvergence, ProfileFormatError, SideRequired,
                     SmoothnessError)
from .families import (FAMILY_NAMES, FamilySpec, SweepResult, instantiate,
                       lp_threshold, octagon_margin, sweep, w_of_M)
from .oracle import (NegativityCertificate, SectionEstimate, field_sign_scan,
                     mc_section_volume, section_ratio_report)
from .profile import (BodyOfRevolution, Breakpoint, ConvexityReport,
                      DerivedProfile, Piece, RadialProfile,
                      classify_breakpoints, parse_prefix, profile_from_json,
                      validate_convexity)
from .transform import (ObstructionField, box_operator, h_fn, h_jet,
                        intersection_radial, inverse_radon, obstruction_field,
                        radon_transform, reciprocal_intersection_profile)

__version__ = "0.1.0"

__all__ = [
    "BodyOfRevolution", "Breakpoint", "ConvexityReport", "CriterionReport",
    "DerivedProfile", "DomainError", "Divergent", "FAMILY_NAMES",
    "FamilySpec", "FlatTopRequired", "InsufficientSamples", "InvalidBracket",
    "InvalidParam", "NegativityCertificate", "NoConvergence",
    "ObstructionField", "Piece", "ProfileFormatError", "RadialProfile",
    "SectionEstimate", "SideRequired", "SmoothnessError", "SweepResult",
    "box_operator", "check_for_dimension", "classify_breakpoints",
    "cor6_check", "field_sign_scan", "flat_top_check", "flatness_curvature",
    "h_fn", "h_jet", "instantiate", "intersection_radial", "inverse_radon",
    "lp_threshold", "mc_section_volume", "obstruction_field",
    "octagon_margin", "parse_prefix", "profile_from_json", "prop1_check",
    "prop4_check", "radon_transform", "reciprocal_intersection_profile",
    "section_ratio_report", "sweep", "validate_convexity", "vamos_numerator",
    "w_of_M", "__version__",
]
