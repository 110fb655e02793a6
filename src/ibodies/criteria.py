"""Closed-form sufficient conditions for "not a polar zonoid".

Each criterion inspects only boundary jets at the axis direction (t=1) and
one quadrature pass of moments over [0, 1] (prop4 and cor6 stack h and k as
two integrands of it), and certifies -- when its strict inequality holds --
that the intersection body of the input body of revolution is not a polar
zonoid.  The conditions are one-sided: a failed inequality concludes nothing.

Dimension 4 ("prop1"):   2 rho(1)^4  >  3 (int_0^1 rho^3) (rho(1) + rho'(1))
Dimension 6 ("prop4"):   h^2 (5r + r') + 24 k^3  <  12 h k r   at t = 1,
    with h = int rho^5 (1-t^2) dt, k = int rho^5 t^2 dt, r = rho^5.
Dimension 6, flat top ("cor6"):  2 k^2 < h r, valid when rho(1)+rho'(1)=0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

# integrate is read as a name of this module, so a tracer can wrap criteria.integrate.
from .calculus import DEFAULT_SETTINGS, QuadratureRequest, Settings, integrate
from .errors import FlatTopRequired
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
        return asdict(self)


def _report(name: str, profile: RadialProfile, lhs: float, rhs: float,
            margin: float, intermediates: dict) -> CriterionReport:
    """The report of criterion ``name``: satisfied when the margin clears
    STRICTNESS times the larger side, borderline when it lies within that
    band."""
    band = STRICTNESS * max(abs(lhs), abs(rhs), 1e-300)
    return CriterionReport(
        criterion=name, dimension=CRITERIA[name][0], profile=profile.name or "custom",
        lhs=lhs, rhs=rhs, margin=margin,
        verdict=NOT_POLAR_ZONOID if margin > band else INCONCLUSIVE,
        borderline=abs(margin) <= band, intermediates=intermediates)


def _flat_top(rho1: float, drho1: float) -> tuple:
    """Value of rho(1) + rho'(1) and whether it vanishes within tolerance.

    A vanishing sum means the boundary graph has zero second derivative at
    the axis of revolution (a "flat top").
    """
    value = rho1 + drho1
    return value, abs(value) <= FLAT_TOP_TOL * max(abs(rho1), abs(drho1))


def _rho3_moment(profile: RadialProfile, settings: Settings = DEFAULT_SETTINGS) -> float:
    """int rho^3 over [0, 1], prop1's one pass."""
    return float(integrate(QuadratureRequest(
        lambda t: profile.eval_array(t) ** 3, [1.0],
        profile.breakpoint_locations, settings)).values[0, 0])


def prop1_check(profile: RadialProfile,
                settings: Settings = DEFAULT_SETTINGS) -> CriterionReport:
    """Dimension-4 criterion: 2 rho(1)^4 > 3 (int_0^1 rho^3 dt)(rho(1)+rho'(1))."""
    rho1, drho1 = profile.eval_jet(1.0, 1, "left")
    flat = rho1 + drho1
    int_rho3 = _rho3_moment(profile, settings)
    lhs = 2.0 * rho1 ** 4
    rhs = 3.0 * int_rho3 * flat
    return _report("prop1", profile, lhs, rhs, lhs - rhs, {
        "rho(1)": rho1, "rho'(1)": drho1, "flat_top_value": flat,
        "int_rho3": int_rho3,
    })


def _sixdim_moments(profile: RadialProfile, settings: Settings = DEFAULT_SETTINGS) -> tuple:
    """(h(1), k(1)) from one pass; h is its own integral, as int rho^5 - k rounds otherwise."""
    return tuple(integrate(QuadratureRequest(
        lambda t: profile.eval_array(t) ** 5 * np.stack([1.0 - t * t, t * t]), [1.0],
        profile.breakpoint_locations, settings)).values[:, 0].tolist())


def prop4_check(profile: RadialProfile,
                settings: Settings = DEFAULT_SETTINGS) -> CriterionReport:
    """Dimension-6 criterion: h^2(5r + r') + 24 k^3 < 12 h k r at t=1."""
    rho1, drho1 = profile.eval_jet(1.0, 1, "left")
    r1 = rho1 ** 5
    rp1 = 5.0 * rho1 ** 4 * drho1
    h1, k1 = _sixdim_moments(profile, settings)
    lhs = h1 ** 2 * (5.0 * r1 + rp1) + 24.0 * k1 ** 3
    rhs = 12.0 * h1 * k1 * r1
    return _report("prop4", profile, lhs, rhs, rhs - lhs, {
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
    rho1, drho1 = profile.eval_jet(1.0, 1, "left")
    flat_value, is_flat = _flat_top(rho1, drho1)
    if not is_flat:
        raise FlatTopRequired(
            f"flat-top condition fails: rho(1) + rho'(1) = {flat_value:.6g}"
        )
    r1 = rho1 ** 5
    h1, k1 = _sixdim_moments(profile, settings)
    lhs = 2.0 * k1 ** 2
    rhs = h1 * r1
    return _report("cor6", profile, lhs, rhs, rhs - lhs, {
        "rho(1)": rho1, "r(1)": r1, "h(1)": h1, "k(1)": k1,
        "flat_top_value": flat_value,
    })


# Criterion name -> (the dimension it applies to, its check).
CRITERIA = {"prop1": (4, prop1_check), "prop4": (6, prop4_check), "cor6": (6, cor6_check)}
CRITERION_CHOICES = ("auto",) + tuple(CRITERIA)


def criterion_name(criterion: Optional[str], dimension: int) -> str:
    """The criterion that ``criterion`` names in ``dimension``: None and
    "auto" pick prop1 in dimension 4 and prop4 in dimension 6.  A ValueError
    for an unknown name or a dimension that the criterion does not serve."""
    name = criterion or "auto"
    if name == "auto":
        if dimension not in (4, 6):
            raise ValueError(f"no criterion applies to dimension {dimension}: prop1 "
                             "needs dimension 4, prop4 and cor6 need dimension 6")
        name = "prop1" if dimension == 4 else "prop4"
    if name not in CRITERIA:
        raise ValueError(f"unknown criterion {name!r}")
    applies_to = CRITERIA[name][0]
    if dimension != applies_to:
        raise ValueError(f"{name} applies to dimension {applies_to}")
    return name


def check_for_dimension(profile: RadialProfile, dimension: int,
                        criterion: Optional[str] = None,
                        settings: Settings = DEFAULT_SETTINGS) -> CriterionReport:
    """Run the criterion that :func:`criterion_name` resolves, with moments
    integrated at the tolerances of ``settings``."""
    return CRITERIA[criterion_name(criterion, dimension)][1](profile, settings)
