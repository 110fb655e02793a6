"""Piecewise profile representation: parsing, validation, classification."""

import json
import math

import numpy as np
import pytest

from ibodies.errors import (DomainError, ProfileFormatError, SideRequired,
                            SmoothnessError)
from ibodies.families import FamilySpec, instantiate
from ibodies.profile import (BodyOfRevolution, Piece, RadialProfile, add,
                             classify_breakpoints, const, div, mul, parse_prefix,
                             powr, profile_from_json, sqrt, sub, validate_convexity,
                             var_t)
from ibodies.transform import cylinder_intersection_closed_form
from helpers import converted_variable

SQ2 = math.sqrt(0.5)


def _builtin(name, **params):
    return instantiate(FamilySpec(name, params)).profile


# ------------------------------------------------------------------ parsing

def test_prefix_round_trip_preserves_values():
    t = var_t()
    exprs = [
        div(add(sub(3, mul(16, mul(t, t))), mul(28, powr(t, 4))), mul(8, powr(t, 5))),
        mul(0.5, powr(sub(1, mul(t, t)), -0.5)),
        sqrt(add(mul(2.25, mul(t, t)), 1.5)),
    ]
    for expr in exprs:
        back = parse_prefix(expr.to_prefix())
        for x in (0.1, 0.35, 0.77, 0.99):
            assert abs(back.eval(x) - expr.eval(x)) < 1e-15


def test_prefix_literal_with_fractional_exponent():
    expr = parse_prefix("(div 1 (pow (sub 1 (mul t t)) 1/2))")
    assert abs(expr.eval(0.6) - 1.25) < 1e-15


def test_prefix_parse_errors():
    for bad in ["", "(mul t", "(frob t 2)", "(pow t x)", "t t"]:
        with pytest.raises(ProfileFormatError):
            parse_prefix(bad)


def test_prefix_nary_add_and_mul_fold():
    expr = parse_prefix("(add 1 t t)")
    assert abs(expr.eval(0.3) - 1.6) < 1e-15
    expr = parse_prefix("(mul 2 t t)")
    assert abs(expr.eval(0.3) - 0.18) < 1e-15


# --------------------------------------------------------------- validation

def test_piece_interval_must_be_nondegenerate():
    with pytest.raises(ValueError):
        Piece((0.5, 0.5), const(1))
    with pytest.raises(ValueError):
        Piece((0.3, 0.2), const(1))
    with pytest.raises(ValueError):
        Piece((-0.1, 0.5), const(1))


def test_pieces_must_tile_unit_interval():
    with pytest.raises(ValueError):
        RadialProfile([Piece((0.0, 0.4), const(1)), Piece((0.6, 1.0), const(1))])
    with pytest.raises(ValueError):
        RadialProfile([Piece((0.1, 1.0), const(1))])


def test_continuity_enforced_across_joints():
    with pytest.raises(ValueError):
        RadialProfile([Piece((0.0, 0.5), const(1)), Piece((0.5, 1.0), const(2))])


def test_positivity_enforced():
    t = var_t()
    with pytest.raises(ValueError):
        RadialProfile([Piece((0.0, 1.0), sub(0.5, t))])  # vanishes at t=0.5
    # The same shape is fine for a signed auxiliary function.
    RadialProfile([Piece((0.0, 1.0), sub(0.5, t))], require_positive=False)


# ----------------------------------------------------------- classification

def test_capped_cylinder_joint_is_c1():
    # Both one-sided slopes at the joint equal 1; curvature jumps by -4*sqrt(2).
    profile = _builtin("cyl_caps")
    (bp,) = classify_breakpoints(profile)
    assert abs(bp.location - SQ2) < 1e-15
    assert bp.smoothness_class == "C1"
    assert abs(bp.first_derivative_jump) < 1e-9
    assert abs(bp.second_derivative_jump + 4.0 * math.sqrt(2.0)) < 1e-9


def test_cap_radius_controls_joint_class():
    # M=1 caps are tangent to the cylinder (C1); larger caps leave a corner.
    (bp1,) = classify_breakpoints(_builtin("cyl_caps_KM", M=1))
    assert bp1.smoothness_class == "C1"
    (bp3,) = classify_breakpoints(_builtin("cyl_caps_KM", M=3))
    assert bp3.smoothness_class == "C0"
    assert bp3.first_derivative_jump < -1.0


def test_cylinder_joint_needs_a_side_for_derivatives():
    profile = _builtin("cylinder")
    # Values are continuous: no side needed at order 0.
    assert abs(profile.value(SQ2) - math.sqrt(2.0)) < 1e-14
    with pytest.raises(SideRequired):
        profile.eval_jet(SQ2, order=1)
    val, slope = profile.eval_jet(SQ2, order=1, side="left")
    assert abs(slope - 2.0) < 1e-12
    val, slope = profile.eval_jet(SQ2, order=1, side="right")
    assert abs(slope + 2.0) < 1e-12


def test_domain_error_outside_unit_interval():
    profile = _builtin("ball")
    with pytest.raises(DomainError):
        profile.value(1.5)
    with pytest.raises(DomainError):
        profile.eval_jet(-0.2)


def test_infinite_slope_raises_smoothness_error():
    # rho = 1 + sqrt(1 - t): continuous at t=1 but with unbounded derivative.
    t = var_t()
    profile = RadialProfile([Piece((0.0, 1.0), add(1, sqrt(sub(1, t))))])
    assert abs(profile.value(1.0) - 1.0) < 1e-15
    with pytest.raises(SmoothnessError):
        profile.eval_jet(1.0, order=1, side="left")


# ------------------------------------------------------------- evaluation

def test_eval_array_matches_scalar_evaluation():
    profile = _builtin("cylinder")
    t = np.array([0.15, 0.5, SQ2, 0.8, 1.0])
    arr = profile.eval_array(t)
    for ti, vi in zip(t, arr):
        assert abs(vi - profile.value(float(ti))) < 1e-14


def _split_constant():
    return RadialProfile([Piece((0.0, 0.5), const(1)), Piece((0.5, 1.0), const(1))])


# One profile per joint class: C0, C1 and C2+ (a constant split at 0.5).
_RESOLVER_PROFILES = {"cylinder": (lambda: _builtin("cylinder"), SQ2),
                      "cyl_caps": (lambda: _builtin("cyl_caps"), SQ2),
                      "split_constant": (_split_constant, 0.5)}


def _jet_or_error(fn):
    try:
        return [float(c).hex() for c in fn().coeffs]
    except Exception as e:  # the class is what must agree
        return type(e)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("side", [None, "left", "right", "up"])
@pytest.mark.parametrize("where", ["zero", "joint", "one", "interior"])
@pytest.mark.parametrize("name", sorted(_RESOLVER_PROFILES))
def test_float_and_one_point_array_resolve_alike(name, where, side, order):
    # A float and a one-point array resolve piece and side through the same
    # code: same error class, or the same coefficients bit for bit.
    make, joint = _RESOLVER_PROFILES[name]
    profile = make()
    t = {"zero": 0.0, "joint": joint, "one": 1.0, "interior": 0.3}[where]
    scalar = _jet_or_error(lambda: profile._jet(t, order, side))
    array = _jet_or_error(lambda: profile._jet(np.array([t]), order, side).item(0))
    assert scalar == array


def test_max_value():
    assert abs(_builtin("ball").max_value() - 1.0) < 1e-12
    # The cylinder peaks exactly at its rim joint, which the scan includes.
    assert abs(_builtin("cylinder").max_value() - math.sqrt(2.0)) < 1e-12


def test_scaled_profile():
    profile = _builtin("cyl_caps")
    doubled = profile.scaled(2.0)
    for t in (0.2, 0.9):
        assert abs(doubled.value(t) - 2.0 * profile.value(t)) < 1e-14
    with pytest.raises(ValueError):
        profile.scaled(0.0)


# ---------------------------------------------------------------- convexity

def test_builtin_bodies_are_convex():
    for name, params in [("ball", {}), ("cylinder", {}), ("cyl_caps", {}),
                         ("cyl_caps_KM", {"M": 2}), ("octagon_Kb", {"b": 0.5}),
                         ("lp_revolution", {"p": 3}), ("three_bodies_L", {})]:
        profile = _builtin(name, **params)
        report = validate_convexity(profile, 4)
        assert report.convex, f"{name} should report convex"
        assert report.violations == 0


def test_convexity_detects_a_waist():
    # rho dips in the middle: an hourglass of revolution is star-shaped
    # but not convex.
    t = var_t()
    waist = sub(1, mul(2.8, mul(mul(t, t), sub(1, mul(t, t)))))
    profile = RadialProfile([Piece((0.0, 1.0), waist)])
    report = validate_convexity(profile, 4)
    assert not report.convex
    assert report.violations > 0
    assert report.worst_turn > 0.0


# ------------------------------------------------------------ serialization

def test_profile_json_round_trip():
    profile = _builtin("three_bodies_L")
    back = profile_from_json(profile.to_json_dict())
    for t in (0.1, 0.4, 0.9):
        assert abs(back.value(t) - profile.value(t)) < 1e-14


def test_profile_from_json_builtin_form():
    profile = profile_from_json({"builtin": "cyl_caps_KM", "params": {"M": 2}})
    direct = _builtin("cyl_caps_KM", M=2)
    for t in (0.3, 0.8):
        assert abs(profile.value(t) - direct.value(t)) < 1e-15


def test_profile_from_json_file(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"pieces": [
        {"interval": [0.0, 1.0], "expr": "(exp (neg t))"}
    ]}))
    profile = profile_from_json(str(path))
    assert abs(profile.value(0.5) - math.exp(-0.5)) < 1e-15


def test_profile_from_json_rejects_malformed_input():
    with pytest.raises(ProfileFormatError):
        profile_from_json({"nonsense": 1})
    with pytest.raises(ProfileFormatError):
        profile_from_json({"pieces": [{"interval": [0.0, 1.0]}]})
    with pytest.raises(ProfileFormatError):
        profile_from_json([1, 2, 3])
    for params in (5, [1], {"scale": [1]}, {"scale": "2"}):
        with pytest.raises(ProfileFormatError):
            profile_from_json({"builtin": "ball", "params": params})
    with pytest.raises(ProfileFormatError):
        profile_from_json({"pieces": 5})
    with pytest.raises(ProfileFormatError):
        profile_from_json({"pieces": [{"interval": [0.0, 1.0], "expr": 5}]})


# ------------------------------------------------------- variable conversion

def test_converted_variable_round_trip():
    profile = _builtin("cyl_caps")
    twice = converted_variable(converted_variable(profile))
    for t in (0.2, 0.55, 0.9):
        assert abs(twice.value(t) - profile.value(t)) < 1e-12


def test_converted_variable_reparameterizes_known_pair():
    # The closed-form cylinder intersection profile (sine variable) and the
    # builtin comparison body L (cosine variable) describe the same function
    # in opposite parameterizations.
    ic = cylinder_intersection_closed_form()
    ell = _builtin("three_bodies_L")
    conv = converted_variable(ic)
    assert conv.variable == ell.variable
    for t in (0.15, 0.4, 0.6, 0.85):
        assert abs(conv.value(t) - ell.value(t)) < 1e-12
    # Jets transfer too (first derivative, interior point).
    got = conv.eval_jet(0.4, order=1)
    want = ell.eval_jet(0.4, order=1)
    assert abs(got[1] - want[1]) < 1e-9


def test_body_of_revolution_validation():
    profile = _builtin("ball")
    with pytest.raises(ValueError):
        BodyOfRevolution(dimension=2, profile=profile)
    body = BodyOfRevolution(dimension=4, profile=profile)
    assert "R^4" in body.describe()
