"""Boundary criteria: worked bodies, algebraic identities, invariances."""

import math

import numpy as np
import pytest

from ibodies.calculus import QuadratureRequest
from ibodies.criteria import (_moment, check_for_dimension, cor6_check,
                              flat_top_check, prop1_check, prop4_check)
from ibodies.errors import FlatTopRequired, SmoothnessError
from ibodies.families import FAMILY_NAMES, FamilySpec, instantiate
from ibodies.profile import (Piece, RadialProfile, add, mul, powr, sub, var_t)
from ibodies.transform import obstruction_field
from helpers import value_at
from reference_closed_forms import flatness_curvature, vamos_numerator
from reference_quadpack import integrate


def _profile(name, **params):
    return instantiate(FamilySpec(name, params)).profile


# -------------------------------------------------------------- dimension 4

def test_capped_cylinder_satisfies_dim4_criterion():
    rep = prop1_check(_profile("cyl_caps"))
    assert abs(rep.intermediates["rho(1)"] - 1.0) < 1e-12
    assert abs(rep.intermediates["rho'(1)"] - 1.0) < 1e-12
    assert abs(rep.intermediates["int_rho3"] - 5.0 / 16.0) < 1e-10
    assert abs(rep.lhs - 2.0) < 1e-12
    assert abs(rep.rhs - 15.0 / 8.0) < 1e-10
    assert abs(rep.margin - 0.125) < 1e-10
    assert rep.verdict == "NotPolarZonoid"
    assert not rep.borderline


def test_ball_fails_dim4_criterion():
    rep = prop1_check(_profile("ball"))
    assert abs(rep.lhs - 2.0) < 1e-12
    assert abs(rep.rhs - 3.0) < 1e-10
    assert rep.verdict == "Inconclusive"


def test_flat_top_forces_dim4_criterion():
    # With rho(1) + rho'(1) = 0 the right-hand side vanishes, so the strict
    # inequality holds automatically.
    rep = prop1_check(_profile("exp_decay"))
    assert abs(rep.intermediates["flat_top_value"]) < 1e-12
    assert abs(rep.rhs) < 1e-10
    assert abs(rep.lhs - 2.0 * math.exp(-4.0)) < 1e-12
    assert rep.verdict == "NotPolarZonoid"


# -------------------------------------------------------------- dimension 6

def test_ball_fails_dim6_criterion():
    rep = prop4_check(_profile("ball"))
    assert abs(rep.intermediates["h(1)"] - 2.0 / 3.0) < 1e-10
    assert abs(rep.intermediates["k(1)"] - 1.0 / 3.0) < 1e-10
    assert abs(rep.lhs - 28.0 / 9.0) < 1e-9
    assert abs(rep.rhs - 8.0 / 3.0) < 1e-9
    assert abs(rep.margin + 4.0 / 9.0) < 1e-9
    assert rep.verdict == "Inconclusive"


def test_cylinder_fails_flat_top_dim6_criterion():
    rep = cor6_check(_profile("cylinder"))
    assert abs(rep.intermediates["h(1)"] - 1.25) < 1e-10
    assert abs(rep.intermediates["k(1)"] - 5.0 / 6.0) < 1e-10
    assert abs(rep.lhs - 25.0 / 18.0) < 1e-9
    assert abs(rep.rhs - 1.25) < 1e-10
    assert abs(rep.margin + 5.0 / 36.0) < 1e-9
    assert rep.verdict == "Inconclusive"


def test_comparison_body_L_passes_flat_top_criterion():
    rep = cor6_check(_profile("three_bodies_L"))
    h_want = 44239925.0 / 3879876.0
    k_want = 30712575.0 / 14872858.0
    assert abs(rep.intermediates["h(1)"] - h_want) < 1e-8 * h_want
    assert abs(rep.intermediates["k(1)"] - k_want) < 1e-8 * k_want
    assert abs(rep.margin - (h_want - 2.0 * k_want ** 2)) < 1e-7
    assert rep.verdict == "NotPolarZonoid"


def test_exponential_body_passes_flat_top_criterion():
    rep = cor6_check(_profile("exp_decay"))
    e5 = math.exp(-5.0)
    h_want = (23.0 + 12.0 * e5) / 125.0
    k_want = (2.0 - 37.0 * e5) / 125.0
    assert abs(rep.intermediates["h(1)"] - h_want) < 1e-10 * h_want
    assert abs(rep.intermediates["k(1)"] - k_want) < 1e-10 * k_want
    assert rep.margin > 0.0
    assert rep.verdict == "NotPolarZonoid"


def test_flat_top_reduction_identity():
    # With a flat top, the general dimension-6 margin factors exactly as
    # 12 k(1) times the flat-top margin.
    for name in ("cylinder", "exp_decay", "three_bodies_L"):
        profile = _profile(name)
        full = prop4_check(profile)
        flat = cor6_check(profile)
        k1 = flat.intermediates["k(1)"]
        assert abs(full.margin - 12.0 * k1 * flat.margin) \
            < 1e-9 * max(1.0, abs(full.margin))


def test_cor6_requires_flat_top():
    with pytest.raises(FlatTopRequired):
        cor6_check(_profile("ball"))


def test_double_cone_lacks_boundary_smoothness():
    # b=0 collapses the octagon to a double cone whose slope blows up at the
    # axis; every boundary criterion must refuse rather than guess.
    cone = _profile("octagon_Kb", b=0)
    with pytest.raises(SmoothnessError):
        cor6_check(cone)
    with pytest.raises(SmoothnessError):
        prop4_check(cone)


# ---------------------------------------------------------------- identities

def test_vamos_numerator_for_the_ball():
    assert abs(vamos_numerator(_profile("ball")) + 8.0 / 9.0) < 1e-9


def test_vamos_numerator_is_twice_the_dim6_margin():
    # Algebraic identity checked across randomized smooth profiles
    # rho = a + b t^2 + c t^3.
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = 1.0 + rng.random()
        b = (rng.random() - 0.5) * 0.5
        c = (rng.random() - 0.5) * 0.5
        t = var_t()
        expr = add(add(a, mul(b, mul(t, t))), mul(c, mul(t, mul(t, t))))
        profile = RadialProfile([Piece((0.0, 1.0), expr)], name="random smooth")
        v = vamos_numerator(profile)
        m = prop4_check(profile).margin
        assert abs(v - 2.0 * m) < 1e-9 * max(1.0, abs(v))


def test_verdicts_are_scale_invariant():
    for lam in (0.5, 2.0, 10.0):
        assert prop1_check(_profile("cyl_caps").scaled(lam)).verdict == "NotPolarZonoid"
        assert prop1_check(_profile("ball").scaled(lam)).verdict == "Inconclusive"
        assert cor6_check(_profile("three_bodies_L").scaled(lam)).verdict == "NotPolarZonoid"
        assert cor6_check(_profile("cylinder").scaled(lam)).verdict == "Inconclusive"


def test_flatness_curvature_values():
    # Second derivative of the boundary graph at the axis.
    assert abs(flatness_curvature(_profile("cylinder"))) < 1e-12      # flat
    assert abs(flatness_curvature(_profile("ball")) + 1.0) < 1e-12    # sphere
    assert abs(flatness_curvature(_profile("cyl_caps")) + 2.0) < 1e-12


def test_flat_top_check_tolerance_scaling():
    value, is_flat = flat_top_check(_profile("exp_decay"))
    assert is_flat and abs(value) < 1e-12
    value, is_flat = flat_top_check(_profile("ball"))
    assert not is_flat and abs(value - 1.0) < 1e-12


# ------------------------------------------------- perturbation-stability

def test_equator_shift_perturbations_keep_the_verdict():
    # psi = rho_L * (1 + eps (2t^2-1)(1-t^2)^2 w(t)) moves mass toward the
    # equator while preserving the flat top exactly (double zero at t=1);
    # the flat-top criterion must keep firing for all small eps.
    base = _profile("three_bodies_L")
    rng = np.random.default_rng(20240817)
    for _ in range(6):
        w0, w1, w2 = rng.random(3)
        eps = 0.02 * rng.random()
        t = var_t()
        w_expr = add(add(w0, mul(w1, t)), mul(w2, mul(t, t)))
        shape = mul(sub(mul(2, mul(t, t)), 1),
                    mul(powr(sub(1, mul(t, t)), 2), w_expr))
        factor = add(1, mul(eps, shape))
        psi = RadialProfile([Piece(p.interval, mul(p.expr, factor))
                             for p in base.pieces], name="perturbed L")
        value, is_flat = flat_top_check(psi)
        assert is_flat
        rep = cor6_check(psi)
        assert rep.verdict == "NotPolarZonoid"
        assert rep.margin > 2.0


# ------------------------------------------- criterion / field consistency

def test_dim4_criterion_agrees_with_field_sign_at_equator():
    # A firing boundary criterion is precisely negativity of the field at
    # t=1; check both directions on a firing and a non-firing body.
    fires = obstruction_field(instantiate(FamilySpec("cyl_caps", {}, 4)),
                              grid=[0.9, 0.95, 1.0])
    assert value_at(fires, 1.0) < 0.0
    clean = obstruction_field(instantiate(FamilySpec("ball", {}, 4)),
                              grid=[0.9, 0.95, 1.0])
    assert value_at(clean, 1.0) > 0.0


# ------------------------------------------------- moments against QUADPACK

_MOMENT_WEIGHTS = {
    "int_rho3": lambda t, r: r ** 3,
    "h(1)": lambda t, r: r ** 5 * (1.0 - t * t),
    "k(1)": lambda t, r: r ** 5 * t * t,
}
_CATALOGUE_PARAMS = {"cyl_caps_KM": {"M": 2.25}, "octagon_Kb": {"b": 0.65},
                     "lp_revolution": {"p": 4.5}}
_MOMENT_BODIES = ([(name, _CATALOGUE_PARAMS.get(name, {})) for name in FAMILY_NAMES]
                  + [("lp_revolution", {"p": p}) for p in (0.5, 1.5, 50.0)]
                  + [("octagon_Kb", {"b": 0.0})])


@pytest.mark.parametrize(
    "name,params", _MOMENT_BODIES,
    ids=[name + "".join(f"-{k}={v}" for k, v in params.items())
         for name, params in _MOMENT_BODIES])
def test_criterion_moments_match_quadpack(name, params):
    # The criteria integrate with the library's numpy Gauss-Kronrod rule,
    # which has no epsilon extrapolation: lp_revolution with p = 0.5 or 1.5
    # has unbounded derivatives at both ends of [0, 1], p = 50 is steep, and
    # octagon_Kb(b=0) has a square-root end on its diagonal piece.  The
    # QUADPACK reference runs at 1e-13 relative, because at the library's
    # 1e-10 its own error on k(1) for p = 0.5 is 1.0e-12 of the exact 1/252.
    profile = _profile(name, **params)
    for label, weight in _MOMENT_WEIGHTS.items():
        got = _moment(profile, weight)
        want = integrate(QuadratureRequest(
            lambda t: weight(t, profile.value(t)), 0.0, 1.0,
            profile.breakpoint_locations, rel_tol=1e-13, abs_tol=1e-15))
        assert abs(got - want) <= 1e-12 * abs(want), (label, got, want)


# ------------------------------------------------------------------ dispatch

def test_dispatch_by_dimension():
    assert check_for_dimension(_profile("ball"), 4).criterion == "prop1"
    assert check_for_dimension(_profile("ball"), 6).criterion == "prop4"
    assert check_for_dimension(_profile("cylinder"), 6, "cor6").criterion == "cor6"
    with pytest.raises(ValueError):
        check_for_dimension(_profile("ball"), 6, "prop1")
    with pytest.raises(ValueError):
        check_for_dimension(_profile("ball"), 4, "cor6")
    with pytest.raises(ValueError):
        check_for_dimension(_profile("ball"), 4, "frobnicate")


def test_report_serialization():
    rep = prop1_check(_profile("cyl_caps"))
    data = rep.to_dict()
    assert data["verdict"] == "NotPolarZonoid"
    assert '"criterion"' in rep.to_json()
