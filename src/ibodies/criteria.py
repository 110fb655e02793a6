"""Closed-form sufficient conditions for "not a polar zonoid".

Each criterion inspects only boundary jets at the axis direction (t=1) and
one or two moment integrals of the radial profile, and certifies -- when its
strict inequality holds -- that the intersection body of the input body of
revolution is not a polar zonoid.  The conditions are one-sided: a failed
inequality concludes nothing.

Dimension 4 ("prop1"):   2 rho(1)^4  >  3 (int_0^1 rho^3) (rho(1) + rho'(1))
Dimension 6 ("prop4"):   h^2 (5r + r') + 24 k^3  <  12 h k r   at t = 1,
    with h = int rho^5 (1-t^2) dt, k = int rho^5 t^2 dt, r = rho^5.
Dimension 6, flat top ("cor6"):  2 k^2 < h r, valid when rho(1)+rho'(1)=0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .calculus import DEFAULT_SETTINGS, QuadratureRequest, Settings, integrate
from .errors import FlatTopRequired, SmoothnessError
from .profile import RadialProfile

# A strict inequality is only trusted when the margin clears this relative band.
STRICTNESS = 1e-9
FLAT_TOP_TOL = 1e-9

NOT_POLAR_ZONOID = "NotPolarZonoid"
INCONCLUSIVE = "Inconclusive"


@dataclass
class CriterionReport:
    """Outcome of one criterion with all intermediate quantities echoed."""

    criterion: str
    dimension: int
    profile: str
    lhs: float
    rhs: float
    margin: float          # oriented so that positive margin means satisfied
    verdict: str
    borderline: bool
    intermediates: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "dimension": self.dimension,
            "profile": self.profile,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "verdict": self.verdict,
            "borderline": self.borderline,
            "intermediates": dict(self.intermediates),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _axis_jet(profile: RadialProfile) -> tuple:
    """Left value and first derivative of rho at t=1.

    Raises SmoothnessError when the one-sided jet does not exist finitely
    (e.g. a profile with a corner of infinite slope at the axis).
    """
    value, deriv = profile.eval_jet(1.0, order=1, side="left")
    if not (math.isfinite(value) and math.isfinite(deriv)):
        raise SmoothnessError("profile lacks a finite one-sided derivative at t=1")
    return value, deriv


def _moment(profile: RadialProfile, weight,
            settings: Settings = DEFAULT_SETTINGS) -> float:
    return integrate(QuadratureRequest(
        lambda t: weight(t, profile.eval_array(t)), 0.0, 1.0,
        profile.breakpoint_locations, rel_tol=settings.rel_tol,
        abs_tol=settings.abs_tol))


def _decide(margin: float, lhs: float, rhs: float) -> tuple:
    scale = max(abs(lhs), abs(rhs), 1e-300)
    band = STRICTNESS * scale
    if margin > band:
        return NOT_POLAR_ZONOID, False
    return INCONCLUSIVE, abs(margin) <= band


def flat_top_check(profile: RadialProfile) -> tuple:
    """Value of rho(1) + rho'(1) and whether it vanishes within tolerance.

    A vanishing sum means the boundary graph has zero second derivative at
    the axis of revolution (a "flat top").
    """
    rho1, drho1 = _axis_jet(profile)
    value = rho1 + drho1
    scale = max(1.0, abs(rho1), abs(drho1))
    return value, abs(value) <= FLAT_TOP_TOL * scale


def prop1_check(profile: RadialProfile,
                settings: Settings = DEFAULT_SETTINGS) -> CriterionReport:
    """Dimension-4 criterion: 2 rho(1)^4 > 3 (int_0^1 rho^3 dt)(rho(1)+rho'(1))."""
    rho1, drho1 = _axis_jet(profile)
    flat = rho1 + drho1
    int_rho3 = _moment(profile, lambda t, r: r ** 3, settings)
    lhs = 2.0 * rho1 ** 4
    rhs = 3.0 * int_rho3 * flat
    margin = lhs - rhs
    verdict, borderline = _decide(margin, lhs, rhs)
    return CriterionReport(
        criterion="prop1", dimension=4, profile=profile.name or "custom",
        lhs=lhs, rhs=rhs, margin=margin, verdict=verdict, borderline=borderline,
        intermediates={
            "rho(1)": rho1, "rho'(1)": drho1, "flat_top_value": flat,
            "int_rho3": int_rho3,
        })


def _sixdim_moments(profile: RadialProfile,
                    settings: Settings = DEFAULT_SETTINGS) -> tuple:
    h1 = _moment(profile, lambda t, r: r ** 5 * (1.0 - t * t), settings)
    k1 = _moment(profile, lambda t, r: r ** 5 * t * t, settings)
    return h1, k1


def prop4_check(profile: RadialProfile,
                settings: Settings = DEFAULT_SETTINGS) -> CriterionReport:
    """Dimension-6 criterion: h^2(5r + r') + 24 k^3 < 12 h k r at t=1."""
    rho1, drho1 = _axis_jet(profile)
    r1 = rho1 ** 5
    rp1 = 5.0 * rho1 ** 4 * drho1
    h1, k1 = _sixdim_moments(profile, settings)
    lhs = h1 ** 2 * (5.0 * r1 + rp1) + 24.0 * k1 ** 3
    rhs = 12.0 * h1 * k1 * r1
    margin = rhs - lhs
    verdict, borderline = _decide(margin, lhs, rhs)
    return CriterionReport(
        criterion="prop4", dimension=6, profile=profile.name or "custom",
        lhs=lhs, rhs=rhs, margin=margin, verdict=verdict, borderline=borderline,
        intermediates={
            "rho(1)": rho1, "rho'(1)": drho1, "r(1)": r1, "r'(1)": rp1,
            "h(1)": h1, "k(1)": k1,
            "h'(1)": 2.0 * (h1 + k1), "h''(1)": 2.0 * (h1 + k1) + 2.0 * r1,
            "h'''(1)": 4.0 * r1 + 2.0 * rp1,
        })


def cor6_check(profile: RadialProfile,
               settings: Settings = DEFAULT_SETTINGS) -> CriterionReport:
    """Dimension-6 flat-top criterion: 2 k(1)^2 < h(1) r(1).

    Only meaningful when the flat-top condition rho(1)+rho'(1)=0 holds;
    raises FlatTopRequired otherwise.
    """
    flat_value, is_flat = flat_top_check(profile)
    if not is_flat:
        raise FlatTopRequired(
            f"flat-top condition fails: rho(1) + rho'(1) = {flat_value:.6g}"
        )
    rho1, _ = _axis_jet(profile)
    r1 = rho1 ** 5
    h1, k1 = _sixdim_moments(profile, settings)
    lhs = 2.0 * k1 ** 2
    rhs = h1 * r1
    margin = rhs - lhs
    verdict, borderline = _decide(margin, lhs, rhs)
    return CriterionReport(
        criterion="cor6", dimension=6, profile=profile.name or "custom",
        lhs=lhs, rhs=rhs, margin=margin, verdict=verdict, borderline=borderline,
        intermediates={
            "rho(1)": rho1, "r(1)": r1, "h(1)": h1, "k(1)": k1,
            "flat_top_value": flat_value,
        })


def check_for_dimension(profile: RadialProfile, dimension: int,
                        criterion: Optional[str] = None,
                        settings: Settings = DEFAULT_SETTINGS) -> CriterionReport:
    """Dispatch to the criterion appropriate for the dimension.

    ``criterion`` may be "prop1", "prop4", "cor6", or None/"auto" for the
    dimension default (prop1 in dim 4, prop4 in dim 6).  Moments are
    integrated at the tolerances of ``settings``.
    """
    name = criterion or "auto"
    if name == "auto":
        name = "prop1" if dimension == 4 else "prop4"
    if name == "prop1":
        if dimension != 4:
            raise ValueError("prop1 applies to dimension 4")
        return prop1_check(profile, settings)
    if name == "prop4":
        if dimension != 6:
            raise ValueError("prop4 applies to dimension 6")
        return prop4_check(profile, settings)
    if name == "cor6":
        if dimension != 6:
            raise ValueError("cor6 applies to dimension 6")
        return cor6_check(profile, settings)
    raise ValueError(f"unknown criterion {name!r}")
