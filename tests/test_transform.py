"""Radon transform pipeline: moment function, inversion, obstruction field.

Golden values for the R^6 cylinder come from its piecewise closed forms
(rational/algebraic expressions with small integer coefficients), evaluated
independently inside the tests; quadrature-backed routes are cross-checked
against closed-form and finite-difference routes throughout.
"""

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from ibodies import transform
from ibodies.calculus import Settings
from ibodies.errors import DomainError, SideRequired
from ibodies.families import FamilySpec, instantiate
from ibodies.profile import JOINT_TOL, Piece, RadialProfile, add, mul, powr, var_t
from ibodies.transform import (MomentTable, box_operator, default_grid, h_jet,
                               intersection_radial, inverse_radon,
                               obstruction_field)
from helpers import closed_form_function, fd_check, inverse_radon_brute, value_at
from reference_closed_forms import cylinder_intersection_closed_form, radon_transform
from reference_moments import field_g, reciprocal_intersection_profile

SQ2 = math.sqrt(0.5)


def _body(name, dim=None, **params):
    return instantiate(FamilySpec(name, params, dim))


# Closed forms for the cylinder pipeline, restated locally so every golden
# below is evaluated through an independent expression.

def _g_left(t):
    return (6 - 24 * t ** 2 + 16 * t ** 4) / (1 - t * t) ** 1.5


def _g_right(t):
    return (256 * t ** 5 * (27 - 192 * t ** 2 + 510 * t ** 4 - 672 * t ** 6
                            + 392 * t ** 8) / (3 - 16 * t ** 2 + 28 * t ** 4) ** 3)


def _gp_left(t):
    return -(2 * t * (15 - 20 * t ** 2 + 8 * t ** 4)) / (1 - t * t) ** 2.5


def _gp_right(t):
    poly = (405 - 3600 * t ** 2 + 11550 * t ** 4 - 19776 * t ** 6
            + 26208 * t ** 8 - 25088 * t ** 10 + 10976 * t ** 12)
    return 256 * t ** 4 * poly / (3 - 16 * t ** 2 + 28 * t ** 4) ** 4


def _gpp_left(t):
    return -30.0 / (1 - t * t) ** 3.5


def _gpp_right(t):
    poly = (81 - 648 * t ** 2 + 432 * t ** 4 + 6912 * t ** 6
            - 16848 * t ** 8 + 9856 * t ** 10)
    return 15360 * t ** 3 * poly / (3 - 16 * t ** 2 + 28 * t ** 4) ** 5


def _field_right(t):
    poly = (27 - 270 * t ** 2 + 720 * t ** 4 + 240 * t ** 6
            - 2800 * t ** 8 + 2208 * t ** 10)
    return 46080 * t ** 3 * poly / (3 - 16 * t ** 2 + 28 * t ** 4) ** 5


# ----------------------------------------------------------- moment function

def _h(profile, n, x, order=4):
    """h_jet at x, a float or an array, on a table over x's own points."""
    return h_jet(profile, x, MomentTable(profile, n, np.atleast_1d(x)), order)


def test_h_for_the_ball_is_monomial():
    ball = _body("ball").profile
    # n=4: h(x) = x; n=6: h(x) = 2x^3/3.
    for x in (0.2, 0.7, 1.0):
        assert abs(_h(ball, 4, x).value - x) < 1e-12
        assert abs(_h(ball, 6, x).value - 2.0 * x ** 3 / 3.0) < 1e-12


def test_h_for_the_cylinder():
    cyl = _body("cylinder").profile
    # Below the rim the integral is elementary: h(x) = 2x^3/(3 sqrt(1-x^2)).
    for x in (0.25, 0.5, 0.7):
        want = 2.0 * x ** 3 / (3.0 * math.sqrt(1.0 - x * x))
        assert abs(_h(cyl, 6, x).value - want) < 1e-11 * max(1.0, want)
    # At the equator the full fifth-power moment evaluates to 5/4.
    assert abs(_h(cyl, 6, 1.0).value - 1.25) < 1e-10


def test_h_for_comparison_body_L():
    ell = _body("three_bodies_L").profile
    want = 44239925.0 / 3879876.0
    assert abs(_h(ell, 6, 1.0).value - want) < 1e-8 * want


def test_h_rejects_bad_arguments():
    # The table checks the dimension and the points; h_jet refuses a point
    # that is not one of its table's nodes.
    ball = _body("ball").profile
    with pytest.raises(DomainError):
        MomentTable(ball, 5, [0.5])
    with pytest.raises(DomainError, match=r"must lie in \(0, 1\], got 0.0$"):
        MomentTable(ball, 4, [0.0])
    with pytest.raises(DomainError, match=r"must lie in \(0, 1\], got nan$"):
        MomentTable(ball, 4, [math.nan])
    # The profile lives on [0, 1], so h has no value past x = 1.
    for n in (4, 6):
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\], got 1.5$"):
            MomentTable(ball, n, [1.5])
        with pytest.raises(DomainError):
            MomentTable(ball, n, np.array([0.5, 1.0 + 1e-12]))
        with pytest.raises(DomainError):
            MomentTable(ball, n, [0.5, 1.5])
        with pytest.raises(ValueError, match=r"^x=0.25 is not a node of the moment table$"):
            h_jet(ball, 0.25, MomentTable(ball, n, [0.5]))


def test_dimension_outside_four_and_six_is_rejected_alike():
    ball = _body("ball")
    body8 = instantiate(FamilySpec("ball", {}, 8))
    calls = [lambda: MomentTable(ball.profile, 8, [0.5]),
             lambda: MomentTable(ball.profile, 8),
             lambda: inverse_radon(reciprocal_intersection_profile(_body("ball", 4)), 8),
             lambda: intersection_radial(body8, [0.5]),
             lambda: reciprocal_intersection_profile(body8),
             lambda: obstruction_field(body8)]
    for call in calls:
        with pytest.raises(DomainError, match="^dimension must be 4 or 6, got 8$"):
            call()


def test_h_jet_checks_the_order_before_it_integrates(monkeypatch):
    # h_jet only reads the table it is given: it integrates nothing, and an
    # order outside 0..4 is refused before the table is read.
    ball = _body("ball").profile
    table = MomentTable(ball, 4, [0.5])
    requests = []
    monkeypatch.setattr(transform, "integrate", requests.append)
    monkeypatch.setattr(table, "at", requests.append)
    with pytest.raises(ValueError, match="^order must be between 0 and 4$"):
        h_jet(ball, 0.5, table, order=5)
    assert requests == []


def test_moment_table_reads_only_its_nodes():
    # One pass over the nodes at construction; a point that is not a node
    # is refused, with or without nodes, and nothing is integrated for it.
    ball = _body("ball").profile
    # The ball's q is 1: D(x) = x - x^3/3 and C(x) = x^3/3.
    table = MomentTable(ball, 6, [0.5, 0.25, 0.5])
    d, c = table.at(np.array([0.5, 0.25, 0.5]))
    x = np.array([0.5, 0.25, 0.5])
    assert np.allclose(d, x - x ** 3 / 3, rtol=1e-14)
    assert np.allclose(c, x ** 3 / 3, rtol=1e-14)
    diagnostics = dict(table.diagnostics)
    for x in ([0.25, 0.3], [1.0], [0.1], [math.nan]):
        with pytest.raises(ValueError, match=r"^x=.* is not a node of the moment table$"):
            table.at(np.array(x))
    assert table.diagnostics == diagnostics
    empty = MomentTable(ball, 4)
    assert empty.diagnostics == {"panels": 0, "integrand_evals": 0, "max_depth": 0,
                                 "worst_error_fraction": 0.0}
    assert empty.at(np.array([]))[0].size == 0
    with pytest.raises(ValueError, match=r"^x=0.5 is not a node of the moment table$"):
        empty.at(np.array([0.5]))


def test_h_jet_matches_finite_differences():
    # The jet route uses localization identities; the check re-derives h'
    # from values of h alone.
    cases = [(_body("cyl_caps").profile, 4, 0.6),
             (_body("cylinder").profile, 6, 0.5),
             (_body("cylinder").profile, 6, 0.9)]
    for prof, n, x in cases:
        _, _, rel = fd_check(lambda u: _h(prof, n, u).value,
                             lambda u: _h(prof, n, u, order=1).deriv(1),
                             x, order=1, h0=1e-3)
        assert rel < 1e-8


# -------------------------------------------------------- intersection radial

BUILTINS = [(name, dim, params) for name, params in (
    ("ball", {}), ("cylinder", {}), ("cyl_caps", {}), ("cyl_caps_KM", {"M": 2.25}),
    ("octagon_Kb", {"b": 0.65}), ("lp_revolution", {"p": 4.5}), ("exp_decay", {}),
    ("three_bodies_L", {})) for dim in (4, 6)]


@pytest.mark.parametrize("name,dim,params", BUILTINS)
def test_intersection_profile_integrates_each_query_on_its_own(name, dim, params):
    # A query's moments come from one table over its own points: the values
    # have the bits of the reciprocal on that table, turned over, the axis
    # series row (5e-5 in R^6) and a joint (1/sqrt 2) included.
    body = _body(name, dim, **params)
    xs = np.array([5e-5, 0.3, SQ2, 0.9, 1.0])
    got = intersection_radial(body, xs)
    reciprocal = reciprocal_intersection_profile(body, MomentTable(body.profile, dim, xs))
    assert got.tolist() == [1.0 / reciprocal.value(x) for x in xs]


def test_intersection_profile_of_balls_is_constant():
    xs = [0.1, 0.5, 0.99]
    for dim in (4, 6):
        assert np.all(np.abs(intersection_radial(_body("ball", dim), xs) - 1.0) < 1e-12)


def test_every_profile_refuses_an_order_above_its_own_with_value_error():
    # One front checks the order for closed-form and derived profiles alike;
    # the field's reciprocal has jets up to order 4, the ball's profile up
    # to order 3.
    reciprocal = reciprocal_intersection_profile(_body("ball", 4))
    ball = _body("ball", 4).profile
    for profile, top in ((reciprocal, 4), (ball, 3)):
        assert profile.max_order == top
        with pytest.raises(ValueError, match=f"^order must be between 0 and {top}$"):
            profile.eval_jet(0.5, top + 1)
        with pytest.raises(ValueError, match=f"^order must be between 0 and {top}$"):
            profile.eval_jet(0.5, -1)


def test_intersection_profile_near_the_axis_takes_the_axis_series():
    # Below x = 1e-4 in dimension 6 the field's reciprocal x^3/(c_6 h_6)
    # takes its jet from the axis series of rho^5; from the moments,
    # x^2 B - C, the order-3 jet of its inverse was off by up to 3.3e4
    # (cylinder) and 0.15 (ball) there.
    cylinder = reciprocal_intersection_profile(_body("cylinder", 6))
    ball = reciprocal_intersection_profile(_body("ball", 6))
    closed_form = cylinder_intersection_closed_form()
    for x in (1e-6, 1e-5, 5e-5, 9e-5):
        want = (1.0 / closed_form._jet(x, 3)).derivs()
        for got, w in zip(cylinder.eval_jet(x, 3), want):
            assert abs(got - w) < 1e-12, x
        for got, w in zip(ball.eval_jet(x, 3), (1.0, 0.0, 0.0, 0.0)):
            assert abs(got - w) < 1e-12, x


def test_cylinder_intersection_closed_form_values():
    cf = cylinder_intersection_closed_form()
    # Equatorial value 15/8; rim value sqrt(2) from both pieces.
    assert abs(cf.value(1.0) - 15.0 / 8.0) < 1e-14
    assert abs(cf.value(SQ2) - math.sqrt(2.0)) < 1e-12
    for x in (0.8, 0.95):
        want = (3 - 16 * x ** 2 + 28 * x ** 4) / (8 * x ** 5)
        assert abs(cf.value(x) - want) < 1e-14


def test_cylinder_quadrature_route_is_proportional_to_closed_form():
    # The closed form and the quadrature route share the normalization
    # (3/2) h(x)/x^3, so their ratio is 1.
    xs = [0.3, SQ2, 0.85, 1.0]
    ir = intersection_radial(_body("cylinder"), xs)
    closed_form = cylinder_intersection_closed_form()
    for x, value in zip(xs, ir):
        assert abs(closed_form.value(x) / value - 1.0) < 1e-9


def test_radon_round_trip_constants():
    # R^-1(R(q)) = c_n q with c_4 = 1 and c_6 = 4 for smooth q.
    t = var_t()
    q_expr = add(1, mul(0.5, mul(t, t)))
    q = RadialProfile([Piece((0.0, 1.0), q_expr)], name="smooth test profile")
    for n, cn in ((4, 1.0), (6, 4.0)):
        # radon_transform integrates rho^(n-1), so it is fed rho = q^(1/(n-1)).
        rho = RadialProfile([Piece((0.0, 1.0), powr(q_expr, Fraction(1, n - 1)))])
        back = inverse_radon(radon_transform(rho, n), n)
        for x in (0.3, 0.7):
            assert abs(back.value(x) / q.value(x) - cn) < 1e-9


def test_inverse_radon_requires_sine_variable():
    cos_profile = _body("ball").profile
    with pytest.raises(DomainError):
        inverse_radon(cos_profile, 4)


# -------------------------------------------------- inverse transform goldens

def test_inverse_radon_matches_cylinder_closed_forms():
    g = inverse_radon(reciprocal_intersection_profile(_body("cylinder")), 6)
    for t in (0.1, 0.3, 0.5, 0.65):
        v, d1, d2 = g.eval_jet(t, 2)
        assert abs(v - _g_left(t)) < 1e-10 * max(1.0, abs(_g_left(t)))
        assert abs(d1 - _gp_left(t)) < 1e-10 * max(1.0, abs(_gp_left(t)))
        assert abs(d2 - _gpp_left(t)) < 1e-10 * max(1.0, abs(_gpp_left(t)))
    for t in (0.75, 0.85, 0.97):
        v, d1, d2 = g.eval_jet(t, 2)
        assert abs(v - _g_right(t)) < 1e-10 * max(1.0, abs(_g_right(t)))
        assert abs(d1 - _gp_right(t)) < 1e-10 * max(1.0, abs(_gp_right(t)))
        assert abs(d2 - _gpp_right(t)) < 1e-10 * max(1.0, abs(_gpp_right(t)))


def test_inverse_radon_one_sided_kink_derivatives():
    g = inverse_radon(reciprocal_intersection_profile(_body("cylinder")), 6)
    # Continuous across the kink, derivative jumps from -56 to 184.
    left = g.eval_jet(SQ2, 1, side="left")
    right = g.eval_jet(SQ2, 1, side="right")
    assert abs(left[0] - right[0]) < 1e-10
    assert abs(left[1] + 56.0) < 1e-8 * 56.0
    assert abs(right[1] - 184.0) < 1e-8 * 184.0
    assert abs((right[1] - left[1]) - 240.0) < 1e-7


def test_inverse_radon_equatorial_values():
    g = inverse_radon(reciprocal_intersection_profile(_body("cylinder")), 6)
    val, slope = g.eval_jet(1.0, 1, side="left")
    assert abs(val - 3328.0 / 675.0) < 1e-8 * (3328.0 / 675.0)
    assert abs(slope - 256.0 / 75.0) < 1e-8 * (256.0 / 75.0)


def test_inverse_radon_brute_agrees_with_local_formula():
    # Independent route: iterated derivative of the half-interval moment of f,
    # computed with nested central differences and raw quadrature.
    f = reciprocal_intersection_profile(_body("cylinder"))
    g = inverse_radon(f, 6)
    for t in (0.4, 0.85):
        brute = inverse_radon_brute(f, 6, t)
        assert abs(brute - g.value(t)) < 1e-4 * max(1.0, abs(g.value(t)))
    # n=4 as well, on a smooth body.
    f4 = reciprocal_intersection_profile(_body("exp_decay", 4))
    g4 = inverse_radon(f4, 4)
    for t in (0.35, 0.8):
        brute = inverse_radon_brute(f4, 4, t)
        assert abs(brute - g4.value(t)) < 1e-5 * max(1.0, abs(g4.value(t)))


# ------------------------------------------------------------- box operator

def test_box_operator_on_affine_input():
    # (1-t^2) g'' - (n-1) t g' + (n-1) g maps alpha + beta*t to (n-1) alpha.
    t = var_t()
    aff = closed_form_function([Piece((0.0, 1.0), add(2.5, mul(-0.75, t)))], name="affine")
    assert abs(box_operator(aff, 4, 0.6) - 7.5) < 1e-12
    assert abs(box_operator(aff, 6, 0.3) - 12.5) < 1e-12


def test_box_operator_requires_cosine_variable():
    sine_profile = cylinder_intersection_closed_form()
    with pytest.raises(DomainError):
        box_operator(sine_profile, 6, 0.5)


# -------------------------------------------------------------- field: grids

def test_default_grid_clusters_and_excludes_breakpoints():
    grid = default_grid([0.5], uniform_points=100)
    assert grid[0] >= 1e-6 - 1e-18 and grid[-1] <= 1.0
    assert np.all(np.diff(grid) > 0)
    assert not np.any(np.abs(grid - 0.5) <= 1e-12)
    # Geometric cluster points hug the breakpoint from both sides.
    assert np.any((grid > 0.5) & (grid < 0.5 + 2e-9))
    assert np.any((grid < 0.5) & (grid > 0.5 - 2e-9))


def test_the_joint_band_is_joint_tol_wide_for_the_grid_the_rows_and_the_profile():
    # cyl_caps in R^4: g has a C1 joint at b = 1/sqrt(2), so two joint rows.
    body = _body("cyl_caps", 4)
    profile = body.profile
    (b,) = profile.breakpoint_locations
    assert b == SQ2
    near = [b - JOINT_TOL / 2, b + JOINT_TOL / 2]
    far = [b - 2 * JOINT_TOL, b + 2 * JOINT_TOL]
    grid = [0.3, far[0], near[0], b, near[1], far[1]]
    fld = obstruction_field(body, grid=grid)
    g = field_g(body, grid=grid)
    # The points within the band fold into the two one-sided joint rows.
    assert fld.grid == [0.3, far[0], b, b, far[1]]
    assert fld.is_left_limit == [False, False, True, False, False]
    assert fld.continuous_values[2:4] == [box_operator(g, 4, b, side)
                                          for side in ("left", "right")]
    # The points just outside it are interior rows, evaluated without a side.
    for t, v in zip(far, [fld.continuous_values[1], fld.continuous_values[4]]):
        assert v == box_operator(g, 4, t)
    grid = default_grid([b], uniform_points=2000)
    assert not np.any(np.abs(grid - b) <= JOINT_TOL)
    with pytest.raises(SideRequired):
        profile.eval_jet(near[1], 2)
    profile.eval_jet(far[1], 2)


# ------------------------------------------------------- field: one quadrature

@pytest.mark.parametrize("name,dim,params", [
    ("ball", 4, {}), ("cylinder", 6, {}), ("cyl_caps_KM", 4, {"M": 1.2}),
    ("octagon_Kb", 6, {"b": 0.5}), ("three_bodies_L", 6, {})])
def test_field_runs_one_moment_pass_through_integrate(name, dim, params, monkeypatch):
    # Every moment of the field comes from one call of the integrate that
    # transform imports, with nodes at every grid point and joint.
    requests = []

    def spy(request, _original=transform.integrate):
        requests.append(request)
        return _original(request)

    monkeypatch.setattr(transform, "integrate", spy)
    settings = Settings(rel_tol=1e-9)
    fld = obstruction_field(_body(name, dim, **params), uniform_points=200,
                            settings=settings)
    assert len(requests) == 1
    assert requests[0].settings is settings
    assert set(fld.grid) <= set(np.asarray(requests[0].nodes).tolist())
    assert fld.diagnostics["panels"] > 0


# ----------------------------------------------------------- field: verdicts

def test_ball_field_is_constant_three():
    fld = obstruction_field(_body("ball", 4), grid=np.linspace(0.05, 1.0, 39))
    assert fld.verdict == "Inconclusive"
    assert fld.atoms == []
    vals = np.asarray(fld.continuous_values)
    assert np.max(np.abs(vals - 3.0)) < 1e-9


def test_cylinder_field_full_golden_values():
    fld = obstruction_field(_body("cylinder"))
    assert fld.verdict == "NotPolarZonoid"
    # One positive atom of weight (1 - 1/2) * 240 = 120 at the rim.
    assert len(fld.atoms) == 1
    t0, w = fld.atoms[0]
    assert abs(t0 - SQ2) < 1e-12
    assert abs(w - 120.0) < 1e-6
    # Vanishes identically below the rim, up to the rounding of the moments
    # that the jet of x^3/h amplifies near the axis (4.3e-8 at t = 5e-4)...
    below = [v for t, v in zip(fld.grid, fld.continuous_values) if t < SQ2 - 1e-9]
    assert max(abs(v) for v in below) < 1e-7
    # ...negative just above it, positive at the equator.
    assert fld.min_value < -100.0
    assert SQ2 - 1e-6 <= fld.min_location < 1.0
    assert abs(value_at(fld, 1.0) - 1024.0 / 135.0) < 1e-8
    assert len(fld.sign_changes) >= 1
    # Spot-check the continuous part against the closed-form field.
    for t, v in zip(fld.grid, fld.continuous_values):
        if 0.75 <= t <= 0.95:
            assert abs(v - _field_right(t)) < 1e-8 * max(1.0, abs(_field_right(t)))
    assert fld.witness[2] == "interior"  # interior grid points go negative too


def test_flat_top_field_is_negative_at_the_equator():
    # rho = e^{-t} has a flat top (rho(1) + rho'(1) = 0), which forces the
    # dimension-4 field to be negative at t=1.
    fld = obstruction_field(_body("exp_decay", 4),
                            grid=np.linspace(0.3, 1.0, 29))
    assert fld.verdict == "NotPolarZonoid"
    assert value_at(fld, 1.0) < 0.0
    assert fld.min_location > 0.9


def test_an_empty_grid_gives_a_field_of_the_joint_rows_alone():
    # Without grid points a ball has no row and no moment pass, and certifies
    # nothing; a body with a joint keeps its two joint rows.
    fld = obstruction_field(_body("ball", 4), grid=[])
    assert (fld.grid, fld.continuous_values, fld.atoms, fld.sign_changes) == ([], [], [], [])
    assert fld.verdict == "Inconclusive" and fld.witness is None
    assert math.isnan(fld.min_value) and math.isnan(fld.min_location)
    assert fld.diagnostics == {"panels": 0, "integrand_evals": 0, "max_depth": 0,
                               "worst_error_fraction": 0.0}
    assert obstruction_field(_body("cyl_caps", 6), grid=[]).grid == [SQ2, SQ2]


def test_field_grid_validation():
    body = _body("ball", 4)
    with pytest.raises(DomainError):
        obstruction_field(body, grid=[0.0, 0.5])
    with pytest.raises(DomainError):
        obstruction_field(body, grid=[0.5, 1.2])
    with pytest.raises(DomainError, match=r"^grid points must lie in \(0, 1\]$"):
        obstruction_field(body, grid=[0.5, math.nan])
    with pytest.raises(DomainError):
        obstruction_field(_body("ball", 5))


def test_field_csv_format():
    fld = obstruction_field(_body("cylinder"))
    buf = io.StringIO()
    fld.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,continuous_value,is_left_limit,is_atom,atom_weight"
    assert all(line.count(",") == 4 for line in lines[1:])
    atom_lines = [line for line in lines[1:] if line.split(",")[3] == "1"]
    assert len(atom_lines) == 1
    cells = atom_lines[0].split(",")
    assert abs(float(cells[0]) - SQ2) < 1e-12
    assert abs(float(cells[4]) - 120.0) < 1e-6
    # One left-limit row at the kink precedes the right-limit row.
    kink_rows = [line for line in lines[1:]
                 if abs(float(line.split(",")[0]) - SQ2) < 1e-12
                 and line.split(",")[3] == "0"]
    assert len(kink_rows) == 2
    assert kink_rows[0].split(",")[2] == "1"
    assert kink_rows[1].split(",")[2] == "0"


def test_field_summary_mentions_verdict():
    fld = obstruction_field(_body("ball", 4), grid=np.linspace(0.1, 1.0, 19))
    assert "Inconclusive" in fld.summary()
