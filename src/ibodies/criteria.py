"""Closed-form sufficient conditions for "not a polar zonoid".

Each criterion inspects only boundary jets at the axis direction (t=1) and
the rows of a transform.MomentTable over the single node 1 (int rho^3 in
dimension 4, h and k below in dimension 6), and certifies -- when its strict
inequality holds -- that the intersection body of the input body of
revolution is not a polar zonoid.  The conditions are one-sided: a failed
inequality concludes nothing.

Dimension 4 ("prop1"):   2 rho(1)^4  >  3 (int_0^1 rho^3) (rho(1) + rho'(1))
Dimension 6 ("prop4"):   h^2 (5r + r') + 24 k^3  <  12 h k r   at t = 1,
    with h = int rho^5 (1-t^2) dt, k = int rho^5 t^2 dt, r = rho^5.
Dimension 6, flat top ("cor6"):  2 k^2 < h r, valid when rho(1)+rho'(1)=0.

Each margin is a negative multiple of F(1), the obstruction field's row at
the pole (see transform).  This derivation is the repository's own claim,
not a quotation from the paper; tests/test_criteria.py checks it on every
builtin.  At t = 1 the box operator loses its g'' term, so
F(1) = (n-1) (g(1) - g'(1)).  Below, rho and rho' are taken at 1 and H is
h_n of transform, with f = 1/rho_IK = x^(n-3) / (c_n H).

Dimension 4: H = int_0^x rho^3, so H(1) = I = int_0^1 rho^3, H'(1) = rho^3
and H''(1) = 3 rho^2 rho'.  With f = x / H and g = f + t f',
g - g' = f - f' - f'', and at 1 that is (3 H' + H'') / I^2 - 2 H'^2 / I^3.
So

    F(1) = 3 rho^2 (3 I (rho + rho') - 2 rho^4) / I^3,
    prop1 margin = 2 rho^4 - 3 I (rho + rho') = -I^3 / (3 rho^2) F(1).

Corollary: a flat top makes prop1's right-hand side vanish.  So every
flat-top body in R^4 with a finite rho'(1) certifies with margin 2 rho^4,
and F(1) = -6 rho^6 / I^3.

Dimension 6: H = x^2 B - C with B = int_0^x rho^5 and C = int_0^x t^2 rho^5.
So at 1, H = h, H' = 2 (h + k), H'' = 2 (h + k) + 2 r and H''' = 4 r + 2 r'
(the intermediates of prop4's report).  With f = (2/3) phi, phi = x^3 / H,
and g = 6 f + 10 t f' + 2 t^2 f'', at 1 g - g' = 6 f - 6 f' - 12 f'' - 2 f'''.
Differentiating phi H = x^3 three times at 1 gives phi, ..., phi''' in h, k,
r and r', and

    F(1) = 40 (h^2 (5 r + r') + 24 k^3 - 12 h k r) / (3 h^4),
    prop4 margin = 12 h k r - h^2 (5 r + r') - 24 k^3 = -(3/40) h^4 F(1).

A flat top gives r' = 5 rho^4 rho' = -5 r, so 5 r + r' = 0 and

    F(1) = 160 k (2 k^2 - h r) / h^4,
    cor6 margin = h r - 2 k^2 = -h^4 / (160 k) F(1).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

# integrate is unused here (MomentTable integrates); perfbench's tracer patches it.
from .calculus import DEFAULT_SETTINGS, Settings, integrate  # noqa: F401
from .errors import FlatTopRequired
from .profile import RadialProfile
from .transform import INCONCLUSIVE, NOT_POLAR_ZONOID, MomentTable

# A strict inequality is only trusted when the margin clears this relative band.
STRICTNESS = 1e-9
FLAT_TOP_TOL = 1e-9


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


def _h_k_at_one(profile: RadialProfile, settings: Settings) -> tuple:
    """(h(1), k(1)): the two rows of the dimension-6 MomentTable at the node 1."""
    h1, k1 = MomentTable(profile, 6, [1.0], settings).at(np.ones(1))
    return float(h1[0]), float(k1[0])


def prop1_check(profile: RadialProfile,
                settings: Settings = DEFAULT_SETTINGS) -> CriterionReport:
    """Dimension-4 criterion: 2 rho(1)^4 > 3 (int_0^1 rho^3 dt)(rho(1)+rho'(1))."""
    rho1, drho1 = profile.eval_jet(1.0, 1, "left")
    flat = rho1 + drho1
    int_rho3 = float(MomentTable(profile, 4, [1.0], settings).at(np.ones(1))[0][0])
    lhs = 2.0 * rho1 ** 4
    rhs = 3.0 * int_rho3 * flat
    return _report("prop1", profile, lhs, rhs, lhs - rhs, {
        "rho(1)": rho1, "rho'(1)": drho1, "flat_top_value": flat,
        "int_rho3": int_rho3,
    })


def prop4_check(profile: RadialProfile,
                settings: Settings = DEFAULT_SETTINGS) -> CriterionReport:
    """Dimension-6 criterion: h^2(5r + r') + 24 k^3 < 12 h k r at t=1."""
    rho1, drho1 = profile.eval_jet(1.0, 1, "left")
    r1 = rho1 ** 5
    rp1 = 5.0 * rho1 ** 4 * drho1
    h1, k1 = _h_k_at_one(profile, settings)
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
    h1, k1 = _h_k_at_one(profile, settings)
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
