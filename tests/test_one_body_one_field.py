"""One body, one field: the obstruction field depends on the body, never on
the family name or the description it was built from, nor on joints where
nothing changes; an ellipsoid, a linear image of the ball, gets its exact
field, no certificate and its exact section ratios, and stretching any body along its axis moves its
field, atoms and margins by a closed-form rule and no verdict; and the
dimension-6 axis rows come from the Taylor series of rho^5 at 0 where it
exists.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibodies.criteria import check_for_dimension
from ibodies.families import FAMILY_NAMES, FamilySpec, instantiate
from ibodies.oracle import section_ratio_report
from ibodies.profile import BodyOfRevolution, Piece, RadialProfile, profile_from_json
from ibodies.transform import NEGATIVITY_SCALE, box_operator, inverse_radon, obstruction_field
from helpers import flat_top_check, stretched
from reference_moments import reciprocal_intersection_profile

# Midpoints of the parameter ranges the benchmark catalogue draws from.
CATALOGUE_PARAMS = {"lp_revolution": {"p": 4.5}, "octagon_Kb": {"b": 0.65},
                    "cyl_caps_KM": {"M": 2.25}}
BODIES = [(name, dim) for name in FAMILY_NAMES for dim in (4, 6)]
# Builtins whose rho^5 has a Taylor series at 0 (lp_revolution at p = 4.5
# has a t^4.5 term; test_field_engine checks that its axis rows stay
# excluded).
ANALYTIC = [name for name in FAMILY_NAMES if name != "lp_revolution"]


def _body(name, dim, **params):
    return instantiate(FamilySpec(name, params or CATALOGUE_PARAMS.get(name, {}), dim))


@functools.lru_cache(maxsize=None)
def _field(name, dim):
    return obstruction_field(_body(name, dim))


def _same_field(a, b):
    assert a.grid == b.grid
    assert a.continuous_values == b.continuous_values
    assert a.is_left_limit == b.is_left_limit
    assert a.atoms == b.atoms
    assert a.breakpoint_classes == b.breakpoint_classes
    assert a.excluded == b.excluded
    assert (a.verdict, a.min_value, a.min_location, a.sign_changes) == \
        (b.verdict, b.min_value, b.min_location, b.sign_changes)


# ------------------------------------------------------ two descriptions

def test_octagon_at_b_one_is_the_cylinder():
    # The octagon's diagonal degenerates at b = 1: the same body as the
    # cylinder, with its joint one ulp away.
    octagon = obstruction_field(_body("octagon_Kb", 6, b=1.0))
    cylinder = _field("cylinder", 6)
    assert len(octagon.grid) == len(cylinder.grid)
    assert np.allclose(octagon.grid, cylinder.grid, rtol=0.0, atol=1e-15)
    diff = np.abs(np.subtract(octagon.continuous_values, cylinder.continuous_values))
    assert diff.max() <= 1e-14 * cylinder.max_abs
    assert [w for _, w in octagon.atoms] == pytest.approx(
        [w for _, w in cylinder.atoms], rel=1e-14)
    assert octagon.verdict == cylinder.verdict == "NotPolarZonoid"


@pytest.mark.parametrize("dim", [4, 6])
def test_lp_at_p_two_is_the_ball_bit_for_bit(dim):
    _same_field(obstruction_field(_body("lp_revolution", dim, p=2.0)), _field("ball", dim))


@pytest.mark.parametrize("name,dim", BODIES)
def test_json_dump_gives_the_same_field(name, dim):
    body = _body(name, dim)
    again = BodyOfRevolution(dim, profile_from_json(body.profile.to_json_dict()))
    _same_field(obstruction_field(again), _field(name, dim))


@pytest.mark.parametrize("name,dim", BODIES)
def test_family_name_changes_nothing(name, dim):
    bare = BodyOfRevolution(dim, _body(name, dim).profile)
    assert bare.family is None
    _same_field(obstruction_field(bare), _field(name, dim))


# ------------------------------------------------------ fake breakpoints

FAKE_JOINT_POINTS = 250


@functools.lru_cache(maxsize=None)
def _coarse_field(name, dim):
    return obstruction_field(_body(name, dim), uniform_points=FAKE_JOINT_POINTS)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.sampled_from(BODIES), data=st.data())
def test_a_smooth_fake_breakpoint_changes_no_field(case, data):
    # Each piece splits at a drawn fraction of its interval into two pieces
    # with the same expression: a C-infinity joint, which must classify C2+
    # in the profile and in g and leave the field as it was.
    name, dim = case
    body = _body(name, dim)
    pieces, fakes = [], []
    for piece in body.profile.pieces:
        a, b = piece.interval
        mid = a + data.draw(st.floats(0.05, 0.95), label="fraction") * (b - a)
        pieces += [Piece((a, mid), piece.expr), Piece((mid, b), piece.expr)]
        fakes.append(mid)
    split = BodyOfRevolution(dim, RadialProfile(pieces))
    assert {(bp.location, bp.smoothness_class) for bp in split.profile.breakpoints} >= \
        {(t, "C2+") for t in fakes}

    old = _coarse_field(name, dim)
    new = obstruction_field(split, uniform_points=FAKE_JOINT_POINTS)
    classes = {t: c for t, c, _ in new.breakpoint_classes}
    assert all(classes[t] == "C2+" for t in fakes)
    assert all(classes[t] == c for t, c, _ in old.breakpoint_classes)
    assert new.verdict == old.verdict
    assert [t for t, _ in new.atoms] == [t for t, _ in old.atoms]
    assert [w for _, w in new.atoms] == pytest.approx([w for _, w in old.atoms],
                                                      rel=1e-12)
    old_rows = {(t, left): v for t, left, v in
                zip(old.grid, old.is_left_limit, old.continuous_values)}
    new_rows = {(t, left): v for t, left, v in
                zip(new.grid, new.is_left_limit, new.continuous_values)}
    common = old_rows.keys() & new_rows.keys()
    assert len(common) >= len(old_rows) - len(fakes)
    worst = max(abs(new_rows[k] - old_rows[k]) for k in common)
    assert worst <= 1e-12 * old.max_abs


# Cuts on grid points: a joint there adds no moment node and splits no
# moment panel that the grid had not split already, so every row keeps its
# bits.  A cut between grid points adds a node, and only a rounding bound
# holds for the other rows.
CUTS = (0.3, 0.55)
CUT_GRID = np.concatenate([np.linspace(0.01, 1.0, 99), CUTS])
CUT_BODIES = ["three_bodies_L", "exp_decay", "cyl_caps", "octagon_Kb", "cylinder",
              "lp_revolution"]


@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("name", CUT_BODIES)
def test_splitting_pieces_on_grid_points_changes_no_bit(name, dim):
    # Every piece that holds a cut splits there into pieces with the same
    # expression: the field keeps every row, flag and atom bit for bit, and
    # each new joint classifies as C2+.
    body = _body(name, dim)
    pieces = []
    for piece in body.profile.pieces:
        a, b = piece.interval
        ends = [a, *(c for c in CUTS if a < c < b), b]
        pieces += [Piece(interval, piece.expr) for interval in zip(ends, ends[1:])]
    split = BodyOfRevolution(dim, RadialProfile(pieces))
    old = obstruction_field(body, grid=CUT_GRID)
    new = obstruction_field(split, grid=CUT_GRID)
    assert new.grid == old.grid
    assert new.continuous_values == old.continuous_values
    assert new.is_left_limit == old.is_left_limit
    assert new.atoms == old.atoms
    assert new.verdict == old.verdict
    classes = {t: c for t, c, _ in new.breakpoint_classes}
    assert [classes[c] for c in CUTS] == ["C2+", "C2+"]


# ------------------------------------------------------------ ellipsoids

ELLIPSOID_AXES = (1e-3, 1e-2, 0.1, 0.5, 2.0, 10.0, 1e2, 1e3, 1e4, 3e4)
# c_n in the ellipsoid's exact field (the ball's constant row).
_ELLIPSOID_FACTOR = {4: 3.0, 6: 30.0}


def _ellipsoid(a, dim):
    """The ellipsoid of semi-axes a (along the axis) and 1, as prefix JSON:
    rho = (t^2/a^2 + (1-t)(1+t))^(-1/2)."""
    return BodyOfRevolution(dim, profile_from_json({"pieces": [{"interval": [0, 1], "expr": (
        f"(pow (add (mul {a ** -2!r} (mul t t)) (mul (sub 1 t) (add 1 t))) -1/2)")}]}))


@pytest.mark.parametrize("dim", [4, 6])
def test_no_route_certifies_an_ellipsoid(dim):
    # An ellipsoid is a linear image of the ball, so its intersection body
    # is one of the ball's, a polar zonoid: a certificate would be false.
    for a in ELLIPSOID_AXES:
        body = _ellipsoid(a, dim)
        assert check_for_dimension(body.profile, dim).verdict == "Inconclusive", a
        assert obstruction_field(body).verdict == "Inconclusive", a


@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("a", [0.5, 2.0, 10.0])
def test_ellipsoid_rows_are_its_exact_field(a, dim):
    # F(t) = c_n a^(n-1) (t^2 + a^2 (1 - t^2))^(-(n+1)/2).  In R^6 the rows
    # below t = 1e-2 carry the near-axis error of the moment route and its
    # axis series (ROADMAP item 7), hence their wider bound.
    fld = obstruction_field(_ellipsoid(a, dim))
    t = np.array(fld.grid)
    exact = (_ELLIPSOID_FACTOR[dim] * a ** (dim - 1)
             * (t * t + a * a * (1.0 - t * t)) ** (-(dim + 1) / 2))
    rel = np.abs(np.array(fld.continuous_values) - exact) / exact
    if dim == 4:
        assert rel.max() <= 1e-12
    else:
        assert rel[t >= 1e-2].max() <= 1e-9
        assert rel[t < 1e-2].max() <= 1e-7


@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("a", [0.5, 2.0])
def test_the_oracle_agrees_with_an_ellipsoids_exact_section_ratios(a, dim):
    # I(AK) = |det A| A^(-T) IK (Gardner 2006, Thm 8.1.6), and the ball's IK
    # is a ball, so the ellipsoid's IK is an ellipsoid with semi-axes
    # proportional to 1 along the axis and a across it: the section at phi
    # over the equatorial one (phi = pi/2) is (sin^2 phi + a^2 cos^2 phi)^(-1/2).
    # Held within 1e-12 relative (measured 3e-16).  A larger or smaller a
    # leaves too few hits in the bounding ball at 2e4 samples.
    rep = section_ratio_report(_ellipsoid(a, dim), samples=2 * 10 ** 4)
    assert rep["all_within_3sigma"]
    for comp in rep["comparisons"]:
        phi = comp["phi"]
        exact = (math.sin(phi) ** 2 + a * a * math.cos(phi) ** 2) ** -0.5
        assert abs(comp["quadrature_ratio"] - exact) <= 1e-12 * exact, phi


# ------------------------------------------------------------ stretches

STRETCH_POINTS = 250
# Worst measured over a in [1e-2, 1e2] on the builtins, at a = 100: rows
# 9.5e-12 (R^4) and 3.8e-11 (R^6) of max|F|, atoms 6.2e-12 and margins
# 4.2e-11 relative; the rows at a = 0.5 and 3 held to 1.6e-14 and 5.7e-12.
_STRETCH_ROW_TOL = {4: 1e-10, 6: 1e-9}
_STRETCH_TOL = 1e-9
# Degree of each criterion's margin under the stretch: prop1 scales by a^4
# and prop4 by a^9.
_STRETCH_DEGREE = {4: ("prop1", 4), 6: ("prop4", 9)}


def _jacobian(t, a):
    """D = t^2/a^2 + (1 - t)(1 + t): the stretched body's radial function at
    t is rho(t') D^(-1/2), with t' = (t/a)/sqrt(D) = t/sqrt(a^2 D)."""
    return t * t / (a * a) + (1.0 - t) * (1.0 + t)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(body=st.sampled_from(BODIES), log_a=st.floats(-2.0, 2.0))
def test_a_stretch_along_the_axis_moves_the_field_by_its_rule(body, log_a):
    # I(AK) = |det A| A^(-T) IK (Gardner 2006, Thm 8.1.6) and linear images of
    # zonoids are zonoids, so the stretch A = diag(1, ..., 1, a) maps the
    # field to F_a(t) = a^-2 D^(-(n+1)/2) F(t') and an atom w at t' to
    # w / (a D^((n-2)/2)) at t, scales the prop1 margin by a^4 and the prop4
    # margin by a^9, and moves no verdict.  Rows with t <= 1e-3 carry the
    # near-axis error of ROADMAP item 7 and are left out.
    name, dim = body
    a = 10.0 ** log_a
    original = _body(name, dim)
    stretch = BodyOfRevolution(dim, profile_from_json(
        stretched(original.profile.to_json_dict(), a)))
    fld = obstruction_field(stretch, uniform_points=STRETCH_POINTS)
    rows = [(t, v) for t, v, left in zip(fld.grid, fld.continuous_values, fld.is_left_limit)
            if t > 1e-3 and not left]
    t = np.array([r[0] for r in rows])
    d = _jacobian(t, a)
    # An interior row's t' is a grid point of the original's field, and a
    # joint row's t' is the original's joint in the same place.
    joints = stretch.profile.breakpoint_locations
    source = np.array([original.profile.breakpoint_locations[joints.index(x)] if x in joints
                       else x / math.sqrt(x * x + a * a * (1.0 - x) * (1.0 + x))
                       for x in t.tolist()])
    base = obstruction_field(original, grid=source[~np.isin(t, joints)])
    old = {x: v for x, v, left in zip(base.grid, base.continuous_values, base.is_left_limit)
           if not left}
    want = a ** -2.0 * d ** (-(dim + 1) / 2) * np.array([old[x] for x in source.tolist()])
    got = np.array([r[1] for r in rows])
    assert np.max(np.abs(got - want)) <= _STRETCH_ROW_TOL[dim] * np.max(np.abs(want))
    assert len(fld.atoms) == len(base.atoms)
    for (x, w), (_, w0) in zip(fld.atoms, base.atoms):
        assert abs(w - w0 / (a * _jacobian(x, a) ** ((dim - 2) / 2))) <= _STRETCH_TOL * abs(w)
    assert fld.verdict == obstruction_field(original, uniform_points=STRETCH_POINTS).verdict
    criterion, degree = _STRETCH_DEGREE[dim]
    margin = check_for_dimension(original.profile, dim, criterion).margin * a ** degree
    assert abs(check_for_dimension(stretch.profile, dim, criterion).margin - margin) <= \
        _STRETCH_TOL * abs(margin)
    assert (check_for_dimension(stretch.profile, dim).verdict
            == check_for_dimension(original.profile, dim).verdict)


# ------------------------------------------------------------ axis rows

def test_ball_axis_row_is_its_constant():
    fld = _field("ball", 6)
    assert fld.grid[0] == 1e-6
    assert abs(fld.continuous_values[0] - 30.0) <= 1e-12 * 30.0


def test_cylinder_axis_row_vanishes():
    fld = _field("cylinder", 6)
    assert fld.grid[0] == 1e-6
    assert abs(fld.continuous_values[0]) < 1e-12


@pytest.mark.parametrize("name", ANALYTIC)
def test_analytic_bodies_exclude_no_row(name):
    assert _field(name, 6).excluded == []


@pytest.mark.parametrize("name", ANALYTIC)
def test_series_meets_quadrature_at_the_switch(name):
    fld = _field(name, 6)
    g = inverse_radon(reciprocal_intersection_profile(_body(name, 6)), 6)
    below, above = box_operator(g, 6, np.array([0.99999e-4, 1.00001e-4]))
    assert abs(below - above) <= NEGATIVITY_SCALE * fld.max_abs


# ------------------------------------------------------------ dilation

COVARIANCE_POINTS = 500
# Degree of each criterion's margin in rho: the margin of a dilate by
# lambda is lambda^deg times the margin.
_MARGIN_DEGREE = {"prop1": 4, "prop4": 15, "cor6": 10}


@functools.lru_cache(maxsize=None)
def _dilated(name, dim, k):
    """The field of the body dilated by 2^k and its criterion margins."""
    body = instantiate(FamilySpec(name, {**CATALOGUE_PARAMS.get(name, {}), "scale": 2.0 ** k},
                                  dim))
    names = ["prop1"] if dim == 4 else ["prop4"] + ["cor6"] * flat_top_check(body.profile)[1]
    margins = {c: check_for_dimension(body.profile, dim, c).margin for c in names}
    return obstruction_field(body, uniform_points=COVARIANCE_POINTS), margins


@pytest.mark.parametrize("k", [-20, -10, 10, 20])
@pytest.mark.parametrize("name,dim", BODIES)
def test_a_power_of_two_dilation_scales_the_field_exactly(name, dim, k):
    # The intersection body of lambda K is lambda^(n-1) IK, so its field is
    # lambda^-(n-1) times K's.  With lambda a power of two every tolerance,
    # being relative, takes the same decisions: the same grid, joints,
    # witness and verdict, and every number is the exact multiple.
    (base, base_margins), (fld, margins) = _dilated(name, dim, 0), _dilated(name, dim, k)
    factor = 2.0 ** (-k * (dim - 1))
    assert fld.grid == base.grid
    assert fld.is_left_limit == base.is_left_limit
    assert fld.continuous_values == [v * factor for v in base.continuous_values]
    assert fld.atoms == [(t, w * factor) for t, w in base.atoms]
    assert fld.breakpoint_classes == [(t, c, j * factor) for t, c, j in base.breakpoint_classes]
    assert fld.verdict == base.verdict
    if base.witness is None:
        assert fld.witness is None
    else:
        t, w, kind = base.witness
        assert fld.witness == (t, w * factor, kind)
    assert margins.keys() == base_margins.keys()
    for criterion, margin in base_margins.items():
        assert margins[criterion] == margin * 2.0 ** (k * _MARGIN_DEGREE[criterion]), criterion
