"""Closed forms and forward transforms that only the tests call.

Each function here either is a closed form that a library quantity is
checked against, or evaluates a library quantity in a second, independent
arrangement (the forward Radon transform, the numerator of g'(1) - g(1),
the margin as a function of a family parameter).
"""

import math

import numpy as np

from ibodies.criteria import cor6_check, prop1_check, prop4_check
from ibodies.errors import InvalidParam
from ibodies.families import FamilySpec, instantiate
from ibodies.jets import Jet
from ibodies.profile import (SINE, DerivedProfile, Piece, RadialProfile,
                             add, div, mul, powr, sub, var_t)
from ibodies.transform import _EPS_AXIS, MomentTable, _require_dimension, h_jet
from helpers import closed_form_function


# ------------------------------------------------------------------ criteria

def flatness_curvature(profile: RadialProfile) -> float:
    """Second derivative of the boundary graph at the axis: -(rho(1)+rho'(1))/rho(1)^2."""
    rho1, drho1 = profile.eval_jet(1.0, 1, "left")
    return -(rho1 + drho1) / rho1 ** 2


def vamos_numerator(profile: RadialProfile) -> float:
    """Numerator of g'(1) - g(1) for the dimension-6 pipeline, in h-jet form:

        48 h^3 - 6 h'^3 + 2 h h' (15 h' + 3 h'') - h^2 (57 h' + 15 h'' + h''')

    evaluated at t=1 with the exact identities h' = 2 int_0^1 rho^5 dt,
    h'' = h' + 2 r(1), h''' = 4 r(1) + 2 r'(1), with r = rho^5 from the
    profile's own jet and h(1), k(1) from prop4's report.  Its sign always
    matches the dimension-6 criterion margin (it equals exactly twice that
    margin).
    """
    rho1, drho1 = profile.eval_jet(1.0, 1, "left")
    r1 = rho1 ** 5
    rp1 = 5.0 * rho1 ** 4 * drho1
    moments = prop4_check(profile).intermediates
    h1, k1 = moments["h(1)"], moments["k(1)"]
    hp = 2.0 * (h1 + k1)
    hpp = hp + 2.0 * r1
    hppp = 4.0 * r1 + 2.0 * rp1
    return (48.0 * h1 ** 3 - 6.0 * hp ** 3
            + 2.0 * h1 * hp * (15.0 * hp + 3.0 * hpp)
            - h1 ** 2 * (57.0 * hp + 15.0 * hpp + hppp))


# ----------------------------------------------------------------- transform

def radon_transform(rho: RadialProfile, n: int) -> DerivedProfile:
    """Forward spherical Radon transform of the rotationally symmetric
    function q = rho^(n-1) of t (cosine convention).

    The output is the function x -> x^(3-n) * integral_0^x q(t)
    (x^2-t^2)^((n-4)/2) dt = h_n(x) / x^(n-3) of the sine of the vertical
    angle, constants omitted.  A positive q is passed as rho = q^(1/(n-1)).
    """
    _require_dimension(n)

    def source(x: np.ndarray, order: int, side: np.ndarray) -> Jet:
        jh = h_jet(rho, x, MomentTable(rho, n, x), order, side)
        return jh / Jet.variable(x, order) ** (n - 3)

    return DerivedProfile(source, rho.breakpoint_locations, domain=(_EPS_AXIS, 1.0),
                          variable=SINE, max_order=4,
                          name=f"radon[{rho.name or 'rho'}^{n - 1}]")


def cylinder_intersection_closed_form() -> DerivedProfile:
    """Piecewise closed form of the R^6 cylinder's intersection profile, in
    the library's normalization (3/2) h_6(x)/x^3 (x = sine of the vertical
    angle):

        1/sqrt(1-x^2)              on [0, 1/sqrt(2)]
        (3 - 16x^2 + 28x^4)/(8x^5) on [1/sqrt(2), 1]
    """
    t = var_t()
    t2 = mul(t, t)
    left = powr(sub(1, t2), -1 / 2)
    right = div(add(sub(3, mul(16, t2)), mul(28, mul(t2, t2))), mul(8, powr(t, 5)))
    r = math.sqrt(0.5)
    return closed_form_function([Piece((0.0, r), left), Piece((r, 1.0), right)],
                                variable=SINE, name="cylinder intersection profile")


# ------------------------------------------------------ capped-cylinder family

def w_of_M(M: float) -> float:
    """Dimension-4 criterion margin for the capped cylinder, as a function of M.

    w(M) = 2 rho(1)^4 - 3 (int_0^1 rho^3 dt)(rho(1) + rho'(1)), evaluated by
    quadrature and jets.  Positive w certifies NotPolarZonoid.
    """
    if M < 1.0:
        raise InvalidParam(f"cap radius M must be >= 1, got {M}")
    body = instantiate(FamilySpec("cyl_caps_KM", {"M": M}, dimension=4))
    return prop1_check(body.profile).margin


def w_of_M_closed(M: float) -> float:
    """Closed form of w(M), with s = sqrt(M^2 - 1) and

        int_0^1 rho_M^3 dt = 1 + M^3 + (3/4) M^2 (1 - s) - (1 + s)^3 / 4.
    """
    s = math.sqrt(M * M - 1.0)
    int_rho3 = 1.0 + M ** 3 + 0.75 * M * M * (1.0 - s) - (1.0 + s) ** 3 / 4.0
    rho1 = 1.0 + M - s
    flat = (1.0 - s + M) ** 2 / M
    return 2.0 * rho1 ** 4 - 3.0 * int_rho3 * flat


# ------------------------------------------------------------ octagon family

def octagon_h1_closed(b: float) -> float:
    """Closed form of h(1) = int_0^1 rho_b^5 (1-t^2) dt: (1 + 5b - b^5)/4."""
    return (1.0 + 5.0 * b - b ** 5) / 4.0


def octagon_k1_closed(b: float) -> float:
    """Closed form of k(1) = int_0^1 rho_b^5 t^2 dt: (1 + 5b + 10b^2 - 5b^4 - b^5)/12."""
    return (1.0 + 5.0 * b + 10.0 * b * b - 5.0 * b ** 4 - b ** 5) / 12.0


def octagon_margin(b: float) -> float:
    """Flat-top dimension-6 margin h(1) r(1) - 2 k(1)^2 for the octagon family.

    Defined for b in (0, 1]; at b=0 (the double cone) the profile has no
    finite one-sided derivative at t=1 and the criterion does not apply.
    """
    if not 0.0 < b <= 1.0:
        raise InvalidParam(f"octagon margin requires b in (0, 1], got {b}")
    body = instantiate(FamilySpec("octagon_Kb", {"b": b}, dimension=6))
    return cor6_check(body.profile).margin


def octagon_margin_closed(b: float) -> float:
    return octagon_h1_closed(b) - 2.0 * octagon_k1_closed(b) ** 2
