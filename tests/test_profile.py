"""Piecewise profile representation: parsing, validation, classification."""

import copy
import importlib.util
import inspect
import json
import math
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibodies.errors import (DomainError, ProfileFormatError, SideRequired,
                            SmoothnessError)
from ibodies.families import FAMILY_NAMES, FamilySpec, instantiate
from ibodies.jets import Jet
from ibodies.profile import (JOINT_TOL, MAX_EXPR_DEPTH, BodyOfRevolution, DerivedProfile,
                             Piece, RadialProfile, add, classify_breakpoints, const, div,
                             exp_of, mul, neg, parse_prefix, powr, profile_from_json,
                             sqrt, sub, validate_convexity, var_t)
from helpers import (closed_form_function, converted_variable, masked_eval_array,
                     masked_pieces_jet, searchsorted_index)
from reference_closed_forms import cylinder_intersection_closed_form

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
            assert abs(back.eval_jet(x, 0).value - expr.eval_jet(x, 0).value) < 1e-15


def test_prefix_literal_with_fractional_exponent():
    expr = parse_prefix("(div 1 (pow (sub 1 (mul t t)) 1/2))")
    assert abs(expr.eval_jet(0.6, 0).value - 1.25) < 1e-15


def test_prefix_parse_errors():
    # const and t carry payloads and are never called with arguments.
    for bad in ["", "(mul t", "(frob t 2)", "(pow t x)", "t t", "(const 1)", "(t)",
                "(neg t t)", "(sqrt)"]:
        with pytest.raises(ProfileFormatError):
            parse_prefix(bad)


@pytest.mark.parametrize("text,expected", [
    ("(add t 2)", 2.5), ("(sub t 2)", -1.5), ("(mul t 2)", 1.0), ("(div t 2)", 0.25),
    ("(pow t 3/2)", 0.5 ** 1.5), ("(sqrt t)", math.sqrt(0.5)), ("(exp t)", math.exp(0.5)),
    ("(neg t)", -0.5)])
def test_every_operator_parses_evaluates_and_prints_back(text, expected):
    expr = parse_prefix(text)
    assert expr.to_prefix() == text
    assert expr.eval_jet(0.5, 0).value == pytest.approx(expected, rel=1e-15)


def test_signed_zero_constant_survives_the_prefix_round_trip():
    expr = mul(const(-0.0), var_t())
    assert expr.to_prefix() == "(mul -0.0 t)"
    back = parse_prefix(expr.to_prefix())
    assert math.copysign(1.0, back.eval_jet(0.5, 0).value) == -1.0
    assert math.copysign(1.0, parse_prefix("-0").value) == -1.0
    assert parse_prefix("0").to_prefix() == "0"


def test_non_finite_constants_and_exponents_are_format_errors():
    for bad in ["nan", "inf", "-inf", "1e400", "(pow t inf)", "(pow t nan)"]:
        with pytest.raises(ProfileFormatError, match="bad number"):
            parse_prefix(bad)


def test_prefix_nary_add_and_mul_fold():
    expr = parse_prefix("(add 1 t t)")
    assert abs(expr.eval_jet(0.3, 0).value - 1.6) < 1e-15
    expr = parse_prefix("(mul 2 t t)")
    assert abs(expr.eval_jet(0.3, 0).value - 0.18) < 1e-15


def _depth(expr) -> int:
    return 1 + max((_depth(c) for c in expr.children), default=0)


@pytest.mark.parametrize("text", [
    # An n-ary add folds into a left-deep chain one node deeper per term.
    "(add " + " 1" * 3000 + ")",
    "(mul " + " t" * (MAX_EXPR_DEPTH + 1) + ")",
    "(neg " * 1200 + "t" + ")" * 1200,
    "(neg " * MAX_EXPR_DEPTH + "t" + ")" * MAX_EXPR_DEPTH,
    "(add (mul 1 " + "(exp " * (MAX_EXPR_DEPTH - 2) + "t" + ")" * (MAX_EXPR_DEPTH - 2) + ") 1)",
], ids=["add_of_3000_terms", "mul_chain_past_the_limit", "1200_nested_negs",
        "nested_negs_past_the_limit", "nesting_within_and_depth_past_the_limit"])
def test_a_tree_deeper_than_the_limit_is_a_format_error(text):
    # Walking it would recurse once per node and end in RecursionError.
    with pytest.raises(ProfileFormatError,
                       match=f"expression nested deeper than {MAX_EXPR_DEPTH} levels"):
        parse_prefix(text)


def test_a_tree_at_the_depth_limit_parses_and_evaluates():
    chain = parse_prefix("(add " + " 1" * MAX_EXPR_DEPTH + ")")
    nested = parse_prefix("(neg " * (MAX_EXPR_DEPTH - 1) + "t" + ")" * (MAX_EXPR_DEPTH - 1))
    assert _depth(chain) == _depth(nested) == MAX_EXPR_DEPTH
    assert chain.eval_jet(0.5, 3).value == MAX_EXPR_DEPTH
    assert nested.eval_jet(0.5, 3).value == -0.5


def test_a_tree_built_in_python_checks_its_own_depth():
    # The limit holds however a tree is built: a 2000-link add chain once
    # built and then ended in RecursionError when evaluated.
    expr = var_t()
    with pytest.raises(ProfileFormatError, match=f"deeper than {MAX_EXPR_DEPTH} levels"):
        for _ in range(2000):
            expr = add(expr, 1.0)
        RadialProfile([Piece((0.0, 1.0), expr)])
    assert expr.depth == _depth(expr) == MAX_EXPR_DEPTH
    assert expr.eval_jet(0.5, 3).value == MAX_EXPR_DEPTH - 0.5
    # The depth is no part of a node's value: equal trees stay equal.
    small = parse_prefix("(add t 1)")
    assert small == add(var_t(), 1.0) and hash(small) == hash(add(var_t(), 1.0))
    assert repr(small) == "parse_prefix('(add t 1)')"


def test_a_tree_at_the_depth_limit_compares_copies_pickles_and_hashes():
    # Each of these once recursed through the tree and ended in
    # RecursionError on this chain; the chain's prefix, whose exponents all
    # print exactly, is the third route back to an equal tree.
    chain = var_t()
    for i in range(MAX_EXPR_DEPTH - 1):
        chain = add(chain, powr(const(i), Fraction(-1, 3)) if i % 2 else i)
    assert chain.depth == MAX_EXPR_DEPTH
    for back in (parse_prefix(chain.to_prefix()), copy.deepcopy(chain),
                 pickle.loads(pickle.dumps(chain))):
        assert back is not chain and back == chain and hash(back) == hash(chain)
        assert back.to_prefix() == chain.to_prefix()
    # A copy and the prefix keep every bit of an exponent whose denominator
    # is above 10^6 and that no float holds.
    fine = powr(var_t(), Fraction(1, 3 * 10 ** 7))
    assert pickle.loads(pickle.dumps(fine)) == fine
    assert parse_prefix(fine.to_prefix()) == fine


def test_a_tree_at_the_depth_limit_prints_from_a_deep_caller():
    # repr once recursed through the tree, several frames per level, and
    # to_prefix two: repr of either tree ended in RecursionError, and so did
    # to_prefix when called a few hundred frames deep.
    chain = parse_prefix("(add " + " 1" * MAX_EXPR_DEPTH + ")")
    nested = parse_prefix("(neg " * (MAX_EXPR_DEPTH - 1) + "t" + ")" * (MAX_EXPR_DEPTH - 1))
    # Leave 100 frames free: far fewer than 2 * MAX_EXPR_DEPTH.
    frames = sys.getrecursionlimit() - len(inspect.stack(0)) - 100

    def from_depth(k, fn):
        return fn() if k == 0 else from_depth(k - 1, fn)

    for tree in (chain, nested):
        assert tree.depth == MAX_EXPR_DEPTH
        text = from_depth(frames, tree.to_prefix)
        assert parse_prefix(text) == tree
        assert from_depth(frames, lambda: repr(tree)) == f"parse_prefix({text!r})"


def test_trees_that_differ_in_a_zero_sign_or_an_exponent_are_unequal():
    assert mul(const(-0.0), var_t()) != mul(const(0.0), var_t())
    assert powr(var_t(), Fraction(1, 2)) != powr(var_t(), Fraction(1, 3))
    assert powr(var_t(), 2) == powr(var_t(), Fraction(2))
    assert const(math.nan) == const(math.nan) and hash(const(math.nan)) == hash(const(math.nan))
    assert add(var_t(), 1.0) != add(1.0, var_t()) and add(var_t(), 1.0) != "(add t 1)"


def test_values_are_walked_without_jets(monkeypatch):
    # eval_array, the value scan at construction and max_value walk the
    # value rules alone: a jet built during them is an error.
    one_piece = _builtin("lp_revolution", p=4.5)
    pieces = _builtin("octagon_Kb", b=0.5)

    def refuse(self, coeffs):
        raise AssertionError("a value walk built a jet")

    monkeypatch.setattr(Jet, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a jet"):
        Jet.constant(1.0, 0)
    t = np.linspace(0.0, 1.0, 101)
    for profile in (one_piece, pieces):
        profile.eval_array(t)
        profile.eval_array(np.array([0.3]))
        profile._validate_values()
        profile._max_value = None
        assert profile.max_value() > 0.0
    # A one-piece profile has no joint to classify, so all of its
    # construction runs without a jet.
    RadialProfile(one_piece.pieces)


def test_a_profile_at_the_depth_limit_cannot_be_scaled_past_it():
    # Scaling wraps every piece in one more mul, so it would write JSON that
    # profile_from_json refuses.
    deep = "(neg " * (MAX_EXPR_DEPTH - 1) + "-1" + ")" * (MAX_EXPR_DEPTH - 1)
    profile = profile_from_json({"pieces": [{"interval": [0.0, 1.0], "expr": deep}]})
    assert profile.pieces[0].expr.depth == MAX_EXPR_DEPTH
    with pytest.raises(ProfileFormatError, match=f"deeper than {MAX_EXPR_DEPTH} levels"):
        profile.scaled(2.0)


def test_builtin_and_benchmark_expressions_are_far_below_the_depth_limit():
    params = {"cyl_caps_KM": {"M": 2.25}, "octagon_Kb": {"b": 0.5},
              "lp_revolution": {"p": 4.5}}
    exprs = [piece.expr for name in FAMILY_NAMES
             for piece in _builtin(name, **params.get(name, {})).pieces]
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    rng = random.Random(1)
    exprs += [parse_prefix(piece["expr"]) for _ in range(20)
              for piece in inputs.perturbed_L(rng)["pieces"]]
    for expr in exprs:
        assert parse_prefix(expr.to_prefix()) == expr
        assert _depth(expr) <= MAX_EXPR_DEPTH // 8


# --------------------------------------------------------------- validation

def test_piece_interval_must_be_nondegenerate():
    with pytest.raises(ValueError):
        Piece((0.5, 0.5), const(1))
    with pytest.raises(ValueError):
        Piece((0.3, 0.2), const(1))
    with pytest.raises(ValueError):
        Piece((-0.1, 0.5), const(1))
    # A piece no wider than JOINT_TOL would have both ends on one joint.
    with pytest.raises(ValueError, match=r"^piece interval \[0\.5, 0\.5000000000005\] "):
        Piece((0.5, 0.5 + 5e-13), const(1))
    Piece((0.5, 0.5 + 2e-12), const(1))


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
    # The same shape is fine for a signed auxiliary function, which the
    # tests hold in a DerivedProfile.
    assert closed_form_function([Piece((0.0, 1.0), sub(0.5, t))]).value(0.75) == -0.25


# ----------------------------------------------------------- classification

def test_capped_cylinder_joint_is_c1():
    # Both one-sided slopes at the joint equal 1; curvature jumps by -4*sqrt(2).
    profile = _builtin("cyl_caps")
    (bp,) = classify_breakpoints(profile)
    assert abs(bp.location - SQ2) < 1e-15
    assert bp.smoothness_class == "C1"
    assert abs(bp.first_derivative_jump) < 1e-9
    assert abs(bp.right_jet.deriv(2) - bp.left_jet.deriv(2) + 4.0 * math.sqrt(2.0)) < 1e-9


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
    with pytest.raises(DomainError, match="^argument nan outside"):
        profile.value(math.nan)


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


_BUILTINS = [("ball", {}), ("cylinder", {}), ("cyl_caps", {}), ("cyl_caps_KM", {"M": 1.2}),
             ("octagon_Kb", {"b": 0.5}), ("lp_revolution", {"p": 3}), ("exp_decay", {}),
             ("three_bodies_L", {})]


@pytest.mark.parametrize("name, params", _BUILTINS, ids=[b[0] for b in _BUILTINS])
def test_float_jet_has_the_bits_of_the_one_point_array_jet(name, params):
    # Floats and arrays run through numpy's elementary functions alike.
    profile = _builtin(name, **params)
    for t in np.linspace(0.01, 0.99, 99).tolist():
        for order in range(4):
            for side in ("left", "right"):
                want = profile._jet(np.array([t]), order, side).item(0).derivs()
                got = profile.eval_jet(t, order, side)
                assert [c.hex() for c in got] == [c.hex() for c in want], (t, order, side)


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
        report = validate_convexity(profile)
        assert report.convex, f"{name} should report convex"
        assert report.violations == 0


def test_convexity_detects_a_waist():
    # rho dips in the middle: an hourglass of revolution is star-shaped
    # but not convex.
    t = var_t()
    waist = sub(1, mul(2.8, mul(mul(t, t), sub(1, mul(t, t)))))
    profile = RadialProfile([Piece((0.0, 1.0), waist)])
    report = validate_convexity(profile)
    assert not report.convex
    assert report.violations > 0
    assert report.worst_turn > 0.0


# ------------------------------------------------------------ serialization

def test_profile_json_round_trip():
    profile = _builtin("three_bodies_L")
    back = profile_from_json(profile.to_json_dict())
    for t in (0.1, 0.4, 0.9):
        assert abs(back.value(t) - profile.value(t)) < 1e-14


_JSON_BUILTINS = [("ball", {}), ("cylinder", {}), ("cyl_caps", {}), ("cyl_caps_KM", {"M": 1.2}),
                  ("cyl_caps_KM", {"M": 2.25}), ("octagon_Kb", {"b": 0.65}),
                  ("lp_revolution", {"p": 3}), ("lp_revolution", {"p": 4.3}),
                  ("lp_revolution", {"p": 4.5}), ("lp_revolution", {"p": 9.6}),
                  ("exp_decay", {}), ("three_bodies_L", {})]


def test_the_json_builtins_cover_every_family():
    assert sorted({name for name, _ in _JSON_BUILTINS}) == sorted(FAMILY_NAMES)


@pytest.mark.parametrize("name, params", _JSON_BUILTINS,
                         ids=[f"{n}{p}" for n, p in _JSON_BUILTINS])
def test_every_builtin_round_trips_through_json_to_equal_pieces(name, params):
    # lp_revolution's outer exponent -1/p has a denominator above 10^6 that
    # no float holds at p = 4.3 and 9.6: it is written as a fraction.
    profile = _builtin(name, **params)
    assert profile_from_json(profile.to_json_dict()).pieces == profile.pieces


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
    # JSON true is an int to isinstance, but no number.
    for params in (5, [1], {"scale": [1]}, {"scale": "2"}, {"scale": True}):
        with pytest.raises(ProfileFormatError):
            profile_from_json({"builtin": "ball", "params": params})
    with pytest.raises(ProfileFormatError):
        profile_from_json({"pieces": 5})
    with pytest.raises(ProfileFormatError):
        profile_from_json({"pieces": [{"interval": [0.0, 1.0], "expr": 5}]})


@pytest.mark.parametrize("pieces", [
    [{"interval": [0, 2], "expr": "1"}],
    [{"interval": [0, math.nan], "expr": "1"}],
    [{"interval": [0, math.inf], "expr": "1"}],
    [{"interval": [0, 0.5], "expr": "1"}],
    [],
    [{"interval": [0, 1], "expr": "(sub t 1)"}],
    [{"interval": [0, 1], "expr": "(sub 1 t)"}],
    [{"interval": [0, 1], "expr": "t"}],
    [{"interval": [0, 0.5], "expr": "(sub 0.5 t)"}, {"interval": [0.5, 1], "expr": "(sub t 0.5)"}],
    [{"interval": [0, 1], "expr": "(pow t -1)"}],
    [{"interval": [0, 1], "expr": "(div 1 (sub 1 t))"}],
    [{"interval": [0, 1], "expr": "(exp (mul 1000 t))"}],
], ids=["outside", "nan", "inf", "short", "empty", "not-positive", "zero-at-1", "zero-at-0",
        "zero-at-the-joint", "pole-at-0", "pole-at-1", "overflow"])
def test_profile_from_json_reports_pieces_that_make_no_profile_as_format_errors(pieces):
    # Piece and RadialProfile raise a plain ValueError for these; read from
    # JSON, they are a malformed description.  Five are positive inside
    # every piece but vanish or have no value at a piece end (a joint
    # included): no body with the origin inside has such a profile, and
    # rho = 1 - t was certified with prop1 margin 0.75.  An exp that
    # overflows a float is no value either.
    with pytest.raises(ProfileFormatError):
        profile_from_json({"pieces": pieces})


@pytest.mark.parametrize("interval", [[False, True], ["0", "1"], [0, True], [0.0, None]])
def test_profile_from_json_refuses_interval_ends_that_are_not_numbers(interval):
    # float() reads false, true and "1"; only JSON numbers are ends.
    with pytest.raises(ProfileFormatError, match="interval ends must be JSON numbers"):
        profile_from_json({"pieces": [{"interval": interval, "expr": "1"}]})
    assert profile_from_json({"pieces": [{"interval": [0, 1], "expr": "1"}]}).value(0.5) == 1.0
    # A JSON integer too large for a float is a format error too.
    with pytest.raises(ProfileFormatError, match="too large"):
        profile_from_json({"pieces": [{"interval": [0, 10 ** 400], "expr": "1"}]})


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


# ------------------------------------------------- array evaluation routes

def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _two_piece():
    # A kink at 1/2: 1 on [0, 1/2], 1.5 - t on [1/2, 1].
    t = var_t()
    return RadialProfile([Piece((0.0, 0.5), const(1.0)),
                          Piece((0.5, 1.0), sub(1.5, t))])


@pytest.mark.parametrize("profile, points", [
    (_builtin("ball"), np.empty(0)),
    (_two_piece(), np.empty((3, 0))),
    (_builtin("ball"), np.linspace(0.0, 1.0, 7)),
    (_builtin("lp_revolution", p=4), np.linspace(0.0, 1.0, 33)),
    (_two_piece(), np.linspace(0.0, 0.4, 9)),
    (_two_piece(), np.linspace(0.6, 1.0, 9)),
    (_two_piece(), np.array([0.5, 0.5, 0.25, 0.75, 0.5 + 1e-13, 0.5 - 1e-13])),
    (_two_piece(), np.array([-0.1, 0.0, 0.5, 1.0, 1.1, np.nan, np.inf])),
    (_builtin("cyl_caps"), np.array([-1e-300, 0.3, SQ2, 0.9, 1.0 + 1e-15])),
    (_builtin("three_bodies_L"), np.linspace(0.0, 1.0, 12).reshape(3, 4)),
    (_builtin("cyl_caps"), np.linspace(-0.5, 1.5, 30).reshape(2, 5, 3)),
])
def test_eval_array_matches_the_masked_scatter_bit_for_bit(profile, points):
    # The jets' domain rule; NaN is outside too.
    outside = points[~((points >= -JOINT_TOL) & (points <= 1.0 + JOINT_TOL))]
    if outside.size:
        # The first point outside is named.
        with pytest.raises(DomainError, match=f"argument {outside[0]} outside"):
            profile.eval_array(points)
        return
    got = profile.eval_array(points)
    want = masked_eval_array(profile, points)
    assert got.shape == points.shape and got.dtype == np.float64
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("bad", [-0.5, 1.5, math.nan, -2 * JOINT_TOL, 1.0 + 2 * JOINT_TOL])
def test_eval_array_refuses_a_point_outside_the_domain(bad):
    points = np.array([0.2, 0.9, bad, 0.5])
    for profile in (_builtin("ball"), _two_piece()):
        with pytest.raises(DomainError, match=f"argument {bad} outside"):
            profile.eval_array(points)
        with pytest.raises(DomainError):
            profile.eval_jet(bad)


@pytest.mark.parametrize("x", [-JOINT_TOL / 2, 1.0 + JOINT_TOL / 2])
def test_eval_array_and_the_jets_take_the_end_piece_within_joint_tol(x):
    for profile in (_builtin("ball"), _two_piece(), _builtin("cyl_caps")):
        end = profile.pieces[0 if x < 0.5 else -1].expr.eval_jet(x, 0).value
        assert profile.eval_array(np.array([0.5, x]))[1] == end == profile.value(x)


def test_eval_array_takes_the_left_piece_on_a_joint():
    assert _two_piece().eval_array(np.array([0.5, 0.5])).tolist() == [1.0, 1.0]
    # A kink of cyl_caps: the left piece's value there is 1/sqrt(2) to rounding.
    left = _builtin("cyl_caps").pieces[0].expr.eval_jet(SQ2, 0).value
    assert _builtin("cyl_caps").eval_array(np.array([SQ2]))[0] == left


@pytest.mark.parametrize("expr", [const(2.0), var_t(), add(var_t(), 1.0)])
def test_eval_array_returns_a_fresh_writable_array(expr):
    # A constant piece yields a scalar and the piece "t" yields the points
    # themselves; neither may reach the caller.  The piece runs on [0.5, 1],
    # above a constant piece (t vanishes at 0), and every point lies on it.
    profile = RadialProfile([Piece((0.0, 0.5), const(expr.eval_value(0.5))),
                             Piece((0.5, 1.0), expr)])
    points = np.linspace(0.6, 1.0, 5)
    before = points.copy()
    a = profile.eval_array(points)
    b = profile.eval_array(points)
    assert a.flags.writeable and not np.shares_memory(a, b)
    assert not np.shares_memory(a, points)
    a[:] = -1.0
    assert _bits(points) == _bits(before)
    assert _bits(b) == _bits(masked_eval_array(profile, points))


def test_pieces_jet_matches_the_masked_scatter_at_every_order():
    profile = _builtin("three_bodies_L")
    points = np.concatenate([np.linspace(0.05, 0.7, 9), np.linspace(0.72, 0.99, 9)])
    for pts in (points, points[:9], points[9:]):
        right = np.ones(pts.size, dtype=np.int8)
        index = searchsorted_index(profile, pts, right)
        located = profile._locate(pts, pts.min(), pts.max(), right)
        for order in range(4):
            got = profile._pieces_jet(pts, located, order)
            want = masked_pieces_jet(profile.pieces, pts, index, order)
            assert len(got.coeffs) == order + 1
            for c_got, c_want in zip(got.coeffs, want.coeffs):
                assert c_got.shape == pts.shape and _bits(c_got) == _bits(c_want)


# ------------------------------------------------- piece dispatch

_JOINTED = {"cyl_caps": {}, "three_bodies_L": {}, "octagon_Kb": {"b": 0.65}}


def _near_joints(profile):
    """Each joint, at +-JOINT_TOL from it, and one ulp either side of those."""
    pts = []
    for b in profile.breakpoint_locations:
        for x in (b, b - JOINT_TOL, b + JOINT_TOL):
            pts += [x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)]
    return np.array(pts)


def _straddling(profile, size=1 << 14):
    """size unsorted points in (0, 1) across every joint, with the joint
    points of _near_joints among them."""
    rng = np.random.default_rng(20260)
    t = rng.uniform(1e-6, 1.0 - 1e-6, size)
    special = _near_joints(profile)
    t[rng.choice(size, special.size, replace=False)] = special
    return t


def _index_of(t, located):
    """The piece of every point from a _locate result, checking that the
    parts are nonempty, disjoint and cover t."""
    if isinstance(located, int):
        return np.full(t.size, located)
    index = np.full(t.size, -1)
    for i, rows in located:
        assert rows.dtype.kind == "i" and rows.size and (index[rows] == -1).all()
        index[rows] = i
    assert (index >= 0).all()
    return index


def _assert_same_jet(got, want, shape):
    assert len(got.coeffs) == len(want.coeffs)
    for c_got, c_want in zip(got.coeffs, want.coeffs):
        assert c_got.shape == shape and _bits(c_got) == _bits(c_want)


@pytest.mark.parametrize("points", ["straddling", "near joints"])
@pytest.mark.parametrize("name", sorted(_JOINTED))
def test_dispatch_matches_the_masked_dispatch(name, points):
    profile = _builtin(name, **_JOINTED[name])
    t = _straddling(profile) if points == "straddling" else _near_joints(profile)
    assert _bits(profile.eval_array(t)) == _bits(masked_eval_array(profile, t))
    for side, code in (("left", -1), ("right", 1)):
        index = searchsorted_index(profile, t, code)
        assert np.unique(index).size == len(profile.pieces)
        for order in range(4):
            _assert_same_jet(profile._jet(t, order, side),
                             masked_pieces_jet(profile.pieces, t, index, order), t.shape)


def test_parts_of_one_point_have_the_bits_of_array_parts():
    # octagon_Kb has three pieces: one point on the first and one on the last
    # piece with several on the middle one, one point on each piece, and
    # every point near a joint alone.
    profile = _builtin("octagon_Kb", b=0.65)
    lo, hi = profile.breakpoint_locations
    alone = [np.array([x]) for x in _near_joints(profile)]
    for t in [np.array([0.1, (lo + hi) / 2, lo + 0.01, 0.97, hi - 0.01]),
              np.array([0.97, 0.1, (lo + hi) / 2])] + alone:
        assert _bits(profile.eval_array(t)) == _bits(masked_eval_array(profile, t))
        for side, code in (("left", -1), ("right", 1)):
            index = searchsorted_index(profile, t, code)
            located = profile._locate(t, t.min(), t.max(), np.full(t.size, code, np.int8))
            if t.size > 1:
                assert [rows.size for _, rows in located].count(1) >= 2
            for order in range(4):
                _assert_same_jet(profile._jet(t, order, side),
                                 masked_pieces_jet(profile.pieces, t, index, order), t.shape)


def _many_pieces(n):
    edges = np.linspace(0.0, 1.0, n + 1)
    return profile_from_json({"pieces": [
        {"interval": [float(a), float(b)], "expr": "(add 1 (mul 0.1 (mul t t)))"}
        for a, b in zip(edges, edges[1:])]})


_LOCATE_PROFILES = {"cyl_caps": _builtin("cyl_caps"),
                    "octagon_Kb": _builtin("octagon_Kb", b=0.65),
                    "9 pieces": _many_pieces(9)}


@st.composite
def _locate_case(draw):
    name = draw(st.sampled_from(sorted(_LOCATE_PROFILES)))
    near = _near_joints(_LOCATE_PROFILES[name]).tolist()
    points = draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(near)),
                           min_size=1, max_size=40))
    return name, np.array(points)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_locate_case(), code=st.sampled_from([-1, 0, 1, None]))
def test_locate_finds_the_searchsorted_piece(case, code):
    # One code for every point, or none (eval_array's values: the left piece).
    name, t = case
    profile = _LOCATE_PROFILES[name]
    want = searchsorted_index(profile, t, -1 if code is None else code)
    side = None if code is None else np.full(t.size, code, np.int8)
    assert (_index_of(t, profile._locate(t, t.min(), t.max(), side)) == want).all()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_locate_case(), data=st.data())
def test_locate_finds_each_points_searchsorted_piece_on_its_own_side(case, data):
    # One side per point (-1 left, +1 right, 0 none): each point gets the
    # piece that a walk of its own side gives it.
    name, t = case
    profile = _LOCATE_PROFILES[name]
    sides = np.array(data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=t.size,
                                        max_size=t.size)), dtype=np.int8)
    want = searchsorted_index(profile, t, sides)
    assert (_index_of(t, profile._locate(t, t.min(), t.max(), sides)) == want).all()


@pytest.mark.parametrize("joints", [1, 2, 5])
def test_classify_breakpoints_calls_the_jet_source_once(joints):
    # One walk: every joint from the left, then every joint from the right.
    calls = []

    def source(t, order, side):
        calls.append((t.tolist(), _codes(t, side)))
        return Jet.variable(t, order) * Jet.variable(t, order)

    locations = np.linspace(0.0, 1.0, joints + 2)[1:-1].tolist()
    bps = classify_breakpoints(DerivedProfile(source, locations))
    assert [b.smoothness_class for b in bps] == ["C2+"] * joints
    assert calls == [(locations * 2, [-1] * joints + [1] * joints)]


def _codes(t, side):
    """The side a jet source received at the points t, as a list, after
    checking that it is one int8 code per point."""
    assert isinstance(side, np.ndarray) and side.dtype == np.int8 and side.shape == t.shape
    return side.tolist()


@pytest.mark.parametrize("side, codes", [
    (None, [0, -1, 0]), ("left", [-1, -1, -1]), ("right", [1, 1, 1]),
    (np.array([1, 0, -1], dtype=np.int8), [1, -1, -1])], ids=["None", "left", "right", "array"])
def test_every_jet_source_call_receives_one_code_per_point(side, codes):
    # Whatever side the caller names, for an array or a float, the source
    # receives one int8 code per point; a point with no side on a joint (at
    # 0.5) takes the left one at order 0.
    calls = []

    def source(t, order, side):
        calls.append(_codes(t, side))
        return Jet.variable(t, order)

    profile = DerivedProfile(source, [0.5])
    profile._jet(np.array([0.25, 0.5, 0.75]), 0, side)
    profile._jet(0.5, 0, side[1:2] if isinstance(side, np.ndarray) else side)
    assert calls == [codes, codes[1:2]]


_ROUND_TRIP_CONSTS = st.floats(-1e6, 1e6, allow_nan=False)
_ROUND_TRIP_EXPONENTS = st.one_of(
    st.sampled_from([Fraction(1, 3), Fraction(-1, 2), Fraction(3, 2), Fraction(2),
                     Fraction(-3), Fraction(7, 1000003)]),
    st.floats(-4.0, 4.0).map(Fraction))


def _round_trip_extend(children):
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b), st.sampled_from([add, sub, mul, div]),
                  children, children),
        st.builds(powr, children, _ROUND_TRIP_EXPONENTS),
        children.map(sqrt), children.map(exp_of), children.map(neg),
    )


_ROUND_TRIP_TREES = st.recursive(
    st.one_of(_ROUND_TRIP_CONSTS.map(const), st.just(var_t())),
    _round_trip_extend, max_leaves=10)


def _outcome(fn):
    try:
        return fn()
    except (ArithmeticError, ValueError) as e:
        return type(e)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tree=_ROUND_TRIP_TREES)
def test_prefix_round_trip_keeps_every_bit_of_eval_array(tree):
    text = tree.to_prefix()
    back = parse_prefix(text)
    assert back == tree and back.to_prefix() == text
    # A random tree is often negative somewhere, so each is walked as a
    # signed one-piece function: the value walk eval_array runs on a piece.
    grid = np.linspace(0.0, 1.0, 61)
    want, got = (_outcome(lambda e=e: closed_form_function([Piece((0.0, 1.0), e)])
                          ._jet(grid, 0).value) for e in (tree, back))
    if isinstance(want, type):
        assert got is want
    else:
        assert _bits(got) == _bits(want)
