"""Boundary criteria: worked bodies, algebraic identities, invariances."""

import math

import numpy as np
import pytest

from ibodies import criteria, transform
from ibodies.calculus import Settings
from ibodies.criteria import check_for_dimension, cor6_check, prop1_check, prop4_check
from ibodies.errors import FlatTopRequired, SmoothnessError
from ibodies.families import FAMILY_NAMES, FamilySpec, instantiate
from ibodies.profile import (BodyOfRevolution, Piece, RadialProfile, add, mul, powr,
                             profile_from_json, sub, var_t)
from ibodies.transform import MomentTable, h_jet, obstruction_field
from helpers import flat_top_check, report_json, value_at
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


def test_a_small_ball_is_not_flat_topped():
    # rho(1) + rho'(1) = rho(1) for every ball: judged against rho(1)
    # itself, a ball of radius 1e-10 is as far from a flat top as the unit
    # ball, so cor6 refuses it rather than certify a body whose IK is a ball.
    ball = instantiate(FamilySpec("ball", {"scale": 1e-10}, 6))
    assert flat_top_check(ball.profile) == (1e-10, False)
    with pytest.raises(FlatTopRequired):
        check_for_dimension(ball.profile, 6, "cor6")


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
_BUILTIN_BODIES = [(name, _CATALOGUE_PARAMS.get(name, {})) for name in FAMILY_NAMES]
_MOMENT_BODIES = (_BUILTIN_BODIES + [("lp_revolution", {"p": p}) for p in (0.5, 1.5, 50.0)]
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
    # The moments are read from the one-node MomentTable that the criteria
    # read (test_criterion_moments_are_the_moment_table_at_one), because
    # lp_revolution with p < 2 and octagon_Kb(b=0) have no finite rho'(1),
    # so no report.
    profile = _profile(name, **params)
    (b4,), _ = MomentTable(profile, 4, [1.0]).at(np.ones(1))
    (h6,), (k6,) = MomentTable(profile, 6, [1.0]).at(np.ones(1))
    moments = {"int_rho3": b4, "h(1)": h6, "k(1)": k6}
    for label, weight in _MOMENT_WEIGHTS.items():
        got = moments[label]
        want = integrate(lambda t: weight(t, profile.value(t)), 0.0, 1.0,
                         profile.breakpoint_locations, Settings(rel_tol=1e-13))
        assert abs(got - want) <= 1e-12 * abs(want), (label, got, want)


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-6])
def test_h_keeps_its_digits_for_a_body_elongated_along_its_axis(rel_tol):
    # The ellipsoid of semi-axes a (axis) and 1 has rho = (t^2/a^2 +
    # (1-t)(1+t))^(-1/2), h(1) = 2a/3 and k(1) = a^3/3.  At a = 10^4 its
    # rho^5 sits so near t = 1 that h(1) is 2e-8 of int rho^5, so
    # int rho^5 - k(1) rounds h(1) by 3e-9 to 6e-9 relative, past the band
    # of STRICTNESS.  As a row of the moment table with its own error
    # control h(1) is off by 4e-10 (the spacing of doubles near t = 1 is
    # 1e-8 of the 1e-8 wide peak of rho^5 (1 - t^2)).  The field's row at
    # t = 1 reads the same h(1).
    a = 1e4
    profile = profile_from_json({"pieces": [{"interval": [0, 1], "expr": (
        f"(pow (add (mul {a ** -2!r} (mul t t)) (mul (sub 1 t) (add 1 t))) -1/2)")}]})
    settings = Settings(rel_tol=rel_tol)
    moments = prop4_check(profile, settings).intermediates
    for label, want in (("h(1)", 2.0 * a / 3.0), ("k(1)", a ** 3 / 3.0)):
        assert abs(moments[label] - want) <= criteria.STRICTNESS * want, label
    table = MomentTable(profile, 6, [1.0], settings)
    assert h_jet(profile, 1.0, table, order=0).value == moments["h(1)"]


@pytest.mark.parametrize("name,dim,criterion,shape", [
    ("cyl_caps", 4, "prop1", (7,)), ("cylinder", 6, "prop4", (2, 7)),
    ("cylinder", 6, "cor6", (2, 7))], ids=["cyl_caps-4-prop1", "cylinder-6-prop4",
                                           "cylinder-6-cor6"])
def test_each_criterion_is_one_pass_through_integrate(name, dim, criterion, shape,
                                                      monkeypatch):
    # The criteria integrate through MomentTable, which calls the integrate
    # that transform imports: one single-node pass per criterion, int rho^3
    # for prop1, and h(1) and k(1) stacked as two integrands for prop4 and
    # cor6.
    # The integrate bound in criteria is never called.
    requests = []

    def spy(request, _original=transform.integrate):
        requests.append(request)
        return _original(request)

    def refuse(request):
        raise AssertionError("criteria.integrate was called")

    monkeypatch.setattr(transform, "integrate", spy)
    monkeypatch.setattr(criteria, "integrate", refuse)
    check_for_dimension(_profile(name), dim, criterion)
    assert len(requests) == 1
    assert list(requests[0].nodes) == [1.0]
    assert np.shape(requests[0].fn(np.linspace(0.0, 1.0, 7))) == shape


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-6])
@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("name,params", _BUILTIN_BODIES,
                         ids=[name for name, _ in _BUILTIN_BODIES])
def test_criterion_moments_are_the_moment_table_at_one(name, params, dim, rel_tol):
    # The criteria read their moments from a one-node MomentTable, bit for
    # bit (they are positive, so == compares bits): int rho^3 = B(1) in R^4,
    # h(1) = D(1) and k(1) = C(1) in R^6.
    profile = _profile(name, **params)
    settings = Settings(rel_tol=rel_tol)
    first, second = MomentTable(profile, dim, [1.0], settings).at(np.ones(1))
    if dim == 4:
        assert prop1_check(profile, settings).intermediates["int_rho3"] == first[0]
        return
    want = {"h(1)": first[0], "k(1)": second[0]}
    reports = [prop4_check] + [cor6_check] * flat_top_check(profile)[1]
    for check in reports:
        got = check(profile, settings).intermediates
        assert {k: got[k] for k in want} == want


# ---------------------------------------- the criteria as the field's row at t = 1

# criterion -> the factor, from the report's intermediates, that takes the
# field's row F(1) to the criterion's margin.  cor6's is prop4's over
# 12 k(1): the flat top makes 5r + r' vanish.
_ROW_TO_MARGIN = {
    "prop1": lambda i: -i["int_rho3"] ** 3 / (3.0 * i["rho(1)"] ** 2),
    "prop4": lambda i: -3.0 / 40.0 * i["h(1)"] ** 4,
    "cor6": lambda i: -i["h(1)"] ** 4 / (160.0 * i["k(1)"]),
}


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_each_margin_is_a_multiple_of_the_field_row_at_one(name, dim, scale):
    body = instantiate(FamilySpec(name, {**_CATALOGUE_PARAMS.get(name, {}), "scale": scale},
                                  dim))
    dumped = BodyOfRevolution(dim, profile_from_json(body.profile.to_json_dict()))
    for b in (body, dumped):
        row = obstruction_field(b, grid=[0.5, 1.0]).continuous_values[-1]
        names = ["prop1"] if dim == 4 else ["prop4"] + ["cor6"] * flat_top_check(b.profile)[1]
        for criterion in names:
            rep = check_for_dimension(b.profile, dim, criterion)
            want = _ROW_TO_MARGIN[criterion](rep.intermediates) * row
            assert abs(rep.margin - want) <= 1e-12 * max(abs(rep.lhs), abs(rep.rhs)), \
                (criterion, rep.margin, want)


@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("p", [2 + 1e-12, 2 + 1e-9, 2.001, 2.3, 3.0, 3.5])
def test_every_lp_just_above_two_is_certified(p, dim):
    # Every l^p body with p > 2 has a flat top, so prop1 certifies in R^4,
    # and prop4 does in R^6 below p = 9.525038.  At p = 2 + 1e-12 the
    # vanishing 1 - t^2 at the pole meets the exponent p/2, within 1e-12
    # of the jet's order: its order-1 jet is 0, not a SmoothnessError.
    rep = check_for_dimension(_profile("lp_revolution", p=p), dim)
    assert rep.verdict == "NotPolarZonoid" and not rep.borderline, rep
    if p - 2.0 <= 1e-9:  # the margins' limits as p falls to 2
        assert rep.margin == pytest.approx(2.0 if dim == 4 else 16.0 / 9.0, rel=1e-8)


@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("p", [2.3, 2.5, 3.0])
def test_lp_field_rows_converge_to_the_criterion_at_the_rim(p, dim):
    # The rows at t = 1 - 10^-k, k = 2..12, are all negative and move
    # monotonically towards the criterion's F(1) (its margin over the factor
    # of _ROW_TO_MARGIN), at about the rate (1 - t)^((p - 2)/2).
    body = instantiate(FamilySpec("lp_revolution", {"p": p}, dim))
    rep = check_for_dimension(body.profile, dim)
    row_at_one = rep.margin / _ROW_TO_MARGIN[rep.criterion](rep.intermediates)
    grid = 1.0 - 10.0 ** -np.arange(2, 13)
    fld = obstruction_field(body, grid=grid)
    assert fld.grid == grid.tolist()
    rows = np.array(fld.continuous_values)
    assert np.all(rows < 0.0), rows
    assert np.all(np.diff(np.abs(rows - row_at_one)) < 0.0), (rows, row_at_one)
    assert abs(rows[-1] - row_at_one) < 0.05 * abs(row_at_one), (rows, row_at_one)


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
    for dim in (3, 5):
        with pytest.raises(ValueError, match=f"^no criterion applies to dimension {dim}: prop1 "
                           "needs dimension 4, prop4 and cor6 need dimension 6$"):
            check_for_dimension(_profile("ball"), dim)


def test_report_serialization():
    rep = prop1_check(_profile("cyl_caps"))
    data = rep.to_dict()
    assert data["verdict"] == "NotPolarZonoid"
    assert '"criterion"' in report_json(rep)
