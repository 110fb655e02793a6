"""The cumulative moment engine against the scalar route it replaced.

Every builtin family, in dimensions 4 and 6, at a catalogue-sized grid: the
field computed from one cumulative moment pass must have the same rows,
flags, atoms and verdict as the library's own chain driven by per-row scalar
quadrature (``reference_moments``), and the same values on every 10th row,
every joint row and the minimum row.

The axis row t = 1e-6 is left out of the value comparison: in dimension 6,
for a body without an axis series (lp_revolution at p = 4.5), its jet of
x^3/h cancels catastrophically, so rounding-level differences in B and C
move it by up to ~1.6e-4 max|field| under either engine (the field
excludes such rows from its verdict).  Every other body takes that row
from the series under both engines.

The field evaluates every row, and both sides of each joint, in one array
walk of g with a side per point; the tests below also check each row against
a single-point evaluation of g on the field's own moment table
(``reference_moments.field_g``), bit for bit, a per-point-side walk against
walks of one side, and the moment pass's stopping rule.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibodies import transform
from ibodies.errors import SmoothnessError
from ibodies.families import FAMILY_NAMES, FamilySpec, instantiate
from ibodies.jets import Jet
from ibodies.profile import (BodyOfRevolution, DerivedProfile, Piece, RadialProfile, add,
                             classify_breakpoints, mul, sub, two_sided, var_t)
from ibodies.transform import (_EPS_AXIS, MomentTable, _box, box_operator, default_grid,
                               obstruction_field)
from reference_moments import field_g, reference_g, reference_rows, reference_value

# Midpoints of the parameter ranges the benchmark catalogue draws from.
CATALOGUE_PARAMS = {"lp_revolution": {"p": 4.5}, "octagon_Kb": {"b": 0.65},
                    "cyl_caps_KM": {"M": 2.25}}
POINTS = 250
BODIES = [(name, dim) for name in FAMILY_NAMES for dim in (4, 6)]
DIAGNOSTIC_KEYS = {"panels", "integrand_evals", "max_depth", "worst_error_fraction"}


def _body(name, dim):
    return instantiate(FamilySpec(name, CATALOGUE_PARAMS.get(name, {}), dim))


@functools.lru_cache(maxsize=None)
def _field(name, dim):
    return obstruction_field(_body(name, dim), uniform_points=POINTS)


def _compare_with_scalar_route(fld, body, rows, atoms, sample):
    n = body.dimension
    g_ref = reference_g(body)
    assert fld.grid == [r[0] for r in rows]
    assert len(fld.continuous_values) == len(rows)
    assert fld.is_left_limit == [r[2] for r in rows]

    # Relative, with the floor of 1 the verdict's own atom scale uses: a
    # joint where the profile happens to be smooth can leave a rounding-level
    # "atom" of size ~1e-9.
    assert [t for t, _ in fld.atoms] == [t for t, _ in atoms]
    for (_, w), (_, want) in zip(fld.atoms, atoms):
        assert abs(w - want) <= 1e-9 * max(1.0, abs(want))

    values = np.asarray(fld.continuous_values)
    sample = [i for i in sample if rows[i][0] != _EPS_AXIS]
    ref = {i: reference_value(g_ref, n, rows[i]) for i in sample}
    for i, want in ref.items():
        assert abs(values[i] - want) <= 1e-9 * fld.max_abs, (rows[i], values[i], want)

    atom_scale = max([1.0] + [abs(w) for _, w in atoms])
    negative = (any(v < -fld.negativity_tol for v in ref.values())
                or any(w < -1e-9 * atom_scale for _, w in atoms))
    assert fld.verdict == ("NotPolarZonoid" if negative else "Inconclusive")


@pytest.mark.parametrize("name,dim", BODIES)
def test_cumulative_field_matches_scalar_route(name, dim):
    body = _body(name, dim)
    fld = _field(name, dim)
    rows, atoms = reference_rows(reference_g(body), uniform_points=POINTS)
    joint_rows = {i for i, r in enumerate(rows) if r[1] is not None}
    k_min = int(np.argmin(fld.continuous_values))
    sample = sorted(set(range(0, len(rows), 10)) | joint_rows | {k_min})
    _compare_with_scalar_route(fld, body, rows, atoms, sample)


@pytest.mark.parametrize("name,dim", BODIES)
def test_moment_diagnostics_repeat_and_meet_tolerance(name, dim):
    first = _field(name, dim)
    again = obstruction_field(_body(name, dim), uniform_points=POINTS)
    assert set(first.diagnostics) == DIAGNOSTIC_KEYS
    assert first.diagnostics == again.diagnostics
    assert 0.0 <= first.diagnostics["worst_error_fraction"] <= 1.0
    assert "panels" not in first.summary()
    # Every row's abscissa ends a panel; each panel costs 15 evaluations.
    assert first.diagnostics["panels"] >= len(set(first.grid))
    assert first.diagnostics["integrand_evals"] >= 15 * first.diagnostics["panels"]


# ----------------------------------------------------- random profiles

@st.composite
def piecewise_profiles(draw):
    """Continuous, positive, 2-3 piece quadratic profiles.

    Each piece starts at the previous piece's end value; slopes and
    curvatures are at most 0.3 in size and the first value is at least 1,
    so the profile stays above 0.4.
    """
    pieces = draw(st.integers(2, 3))
    if pieces == 2:
        cuts = [draw(st.floats(0.2, 0.8))]
    else:
        cuts = [draw(st.floats(0.2, 0.45)), draw(st.floats(0.55, 0.8))]
    edges = [0.0] + cuts + [1.0]
    value = draw(st.floats(1.0, 2.0))
    small = st.floats(-0.3, 0.3)
    t = var_t()
    out = []
    for a, b in zip(edges, edges[1:]):
        slope, curv = draw(small), draw(small)
        u = sub(t, a)
        out.append(Piece((a, b), add(add(value, mul(slope, u)), mul(curv, mul(u, u)))))
        value = value + slope * (b - a) + curv * (b - a) ** 2
    return RadialProfile(out, name="random piecewise quadratic")


@settings(max_examples=8, deadline=None, derandomize=True)
@given(profile=piecewise_profiles(), dim=st.sampled_from([4, 6]))
def test_random_piecewise_profiles_match_scalar_route(profile, dim):
    body = BodyOfRevolution(dim, profile)
    grid = np.linspace(0.05, 1.0, 8)
    fld = obstruction_field(body, grid=grid)
    rows, atoms = reference_rows(reference_g(body), grid=grid)
    _compare_with_scalar_route(fld, body, rows, atoms, range(len(rows)))


# ------------------------------------------------------- one walk per body

@pytest.mark.parametrize("name,dim", BODIES)
def test_every_row_equals_its_own_box_operator_call(name, dim):
    # The field evaluates all interior rows in one array walk and takes the
    # joint rows from its classification jets; a single point gives the
    # same bits.
    fld = _field(name, dim)
    g = field_g(_body(name, dim), uniform_points=POINTS)
    classes = {t: cls for t, cls, _ in fld.breakpoint_classes}
    for t, v, left in zip(fld.grid, fld.continuous_values, fld.is_left_limit):
        if t not in classes:
            assert box_operator(g, dim, t) == v, t
        else:
            side = "left" if left or classes[t] == "C2+" else "right"
            assert box_operator(g, dim, t, side=side) == v, (t, side)


def test_one_walk_per_field(monkeypatch):
    # The whole chain runs once per field: the interior rows and both sides
    # of every joint are one walk of g, so h_jet runs once (three times for
    # a body with joints when the classification walked each side itself).
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return h_jet(*args, **kwargs)

    h_jet = transform.h_jet
    monkeypatch.setattr(transform, "h_jet", counted)
    for name, dim in BODIES:
        calls.clear()
        obstruction_field(_body(name, dim), uniform_points=POINTS)
        assert len(calls) == 1, (name, dim)


def test_every_walk_of_a_field_passes_one_code_per_point(monkeypatch):
    # The field names the sides of g's walk (two_sided), with or without
    # joints, and every walk below it, of the reciprocal and of the
    # profile's pieces, receives one int8 code per point.
    walks = []
    for cls in (DerivedProfile, RadialProfile):
        def recording(self, t, ts, order, side, evaluate=cls.__dict__["_evaluate"]):
            assert isinstance(side, np.ndarray) and side.dtype == np.int8
            assert side.shape == ts.shape
            walks.append(side)
            return evaluate(self, t, ts, order, side)
        monkeypatch.setattr(cls, "_evaluate", recording)
    for name, dim in BODIES:
        body = _body(name, dim)
        k = len(body.profile.breakpoint_locations)
        walks.clear()
        obstruction_field(body, uniform_points=POINTS)
        assert len(walks) == 3, (name, dim)  # g, the reciprocal, the profile
        assert walks[0].tolist() == two_sided(k, walks[0].size - 2 * k).tolist()


@pytest.mark.parametrize("side, why", [
    (np.array([1], np.int8), "one code for three points"),
    (np.array([1, -1], np.int8), "two codes for three points"),
    (np.array([1.0, -1.0, 1.0]), "float codes"),
    (np.array([1, 2, -1], np.int8), "a code outside -1, 0, 1"),
])
def test_a_side_array_is_one_code_per_point_or_refused(side, why):
    # Neither broadcast nor cast: the walk refuses the array before it reads
    # a code, on the profile and through the box operator of its g.
    t = np.array([0.2, 0.3, 0.9])
    body = _body("cyl_caps", 4)
    g = field_g(body, grid=t)
    with pytest.raises(ValueError, match="^side"):
        body.profile._jet(t, 1, side)
    with pytest.raises(ValueError, match="^side"):
        box_operator(g, 4, t, side=side)
    codes = np.array([1, -1, 0], np.int8)
    assert box_operator(g, 4, t, side=codes).tolist() == [
        box_operator(g, 4, x, s) for x, s in zip(t, ("right", "left", None))]


@pytest.mark.parametrize("name,dim", BODIES)
def test_joint_rows_are_the_boxed_classification_jets(name, dim):
    # The joint rows and classes of the one walk equal, bit for bit, the box
    # formula on the one-sided jets that classify_breakpoints(g) reads.
    fld = _field(name, dim)
    joints = classify_breakpoints(field_g(_body(name, dim), uniform_points=POINTS))
    assert fld.breakpoint_classes == [(j.location, j.smoothness_class, j.first_derivative_jump)
                                      for j in joints]
    rows = {(t, left): v for t, v, left in
            zip(fld.grid, fld.continuous_values, fld.is_left_limit)}
    for j in joints:
        kinked = j.smoothness_class != "C2+"
        assert rows[j.location, kinked] == _box(j.location, j.left_jet, dim)
        if kinked:
            assert rows[j.location, False] == _box(j.location, j.right_jet, dim)


def _bits_at(jet, i):
    """The bytes of the coefficients of an array jet's row i."""
    return [np.float64(c[i]).tobytes() for c in jet.coeffs]


def _walk(profile, t, order, side):
    """The jet at the points t, or the class and text of the refusal."""
    try:
        return profile._jet(t, order, side)
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)


@functools.lru_cache(maxsize=None)
def _walked(name, dim):
    """The body's profile and the field's g, each with its highest order
    and the points a walk may ask: every joint, both domain ends and the
    points within JOINT_TOL of the joints (the profile), or the field's
    nodes (g); and a point off each (outside [0, 1], off the nodes)."""
    body = _body(name, dim)
    joints = np.array(body.profile.breakpoint_locations)
    near = np.concatenate([joints, joints - 5e-13, joints + 5e-13, [0.0, 1.0]]).tolist()
    nodes = sorted(set(_field(name, dim).grid))
    on = [t for t in nodes if t in joints or t in (nodes[0], nodes[-1])]
    # The common points twice: two thirds of the draws, so that about half
    # the walks refuse nothing.
    anywhere, node = st.floats(0.0, 1.0), st.sampled_from(nodes)
    return ((body.profile, 3, st.one_of(st.sampled_from(near), anywhere, anywhere), 1.5),
            (field_g(body, uniform_points=POINTS), 2,
             st.one_of(st.sampled_from(on), node, node), 0.5 * (nodes[1] + nodes[2])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(body=st.sampled_from(BODIES), level=st.sampled_from([0, 1]), data=st.data())
def test_a_side_per_point_walks_each_point_on_its_own_side(body, level, data):
    # A walk with one side per point (-1 left, +1 right, 0 none) gives every
    # point the bits of a walk of that point alone on its side, and refuses
    # when one of those walks refuses, with its exception and message.
    profile, max_order, points, off = _walked(*body)[level]
    t = data.draw(st.lists(points, min_size=1, max_size=8))
    if data.draw(st.integers(0, 9)) == 0:
        t.insert(data.draw(st.integers(0, len(t))), off)
    t = np.array(t)
    sides = np.array(data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=t.size,
                                        max_size=t.size)), dtype=np.int8)
    order = data.draw(st.integers(0, max_order))
    alone = [_walk(profile, t[i:i + 1], order, {-1: "left", 0: None, 1: "right"}[side])
             for i, side in enumerate(sides.tolist())]
    got = _walk(profile, t, order, sides)
    refusals = [w for w in alone if isinstance(w, tuple)]
    if refusals:
        assert got in refusals
        return
    assert isinstance(got, Jet), got
    for i, want in enumerate(alone):
        assert _bits_at(got, i) == _bits_at(want, 0), (t[i], sides[i])


def test_box_formula_refuses_non_finite_jets():
    # The joint rows' float jets and box_operator's array jets raise alike.
    with pytest.raises(SmoothnessError, match=r"derivative at t=0\.5$"):
        _box(0.5, Jet((1.0, math.inf, 0.0)), 4)
    jet = Jet((np.ones(3), np.array([0.0, np.nan, np.nan]), np.zeros(3)))
    with pytest.raises(SmoothnessError, match=r"derivative at t=0\.5$"):
        _box(np.array([0.25, 0.5, 0.75]), jet, 4)


@pytest.mark.parametrize("name,dim", BODIES)
def test_moment_pass_needs_no_bisection_on_builtins(name, dim):
    # Every panel ends at a row or a joint and meets its share at once.
    fld = _field(name, dim)
    breaks = _body(name, dim).profile.breakpoint_locations
    edges = np.unique(np.concatenate([[0.0], breaks, fld.grid]))
    assert fld.diagnostics["max_depth"] == 0
    assert fld.diagnostics["panels"] == edges.size - 1


def test_moment_pass_stops_once_every_node_meets_its_tolerance():
    # The double cone's diagonal piece has a square-root singularity in a
    # derivative at t=1: its last panel never meets its share of the
    # tolerance, but the accumulated error at every node does long before
    # the depth cap.  The row at t=1 itself has no finite jet.
    body = instantiate(FamilySpec("octagon_Kb", {"b": 0.0}, 6))
    grid = default_grid(body.profile.breakpoint_locations, uniform_points=POINTS)
    moments = MomentTable(body.profile, 6, grid)
    assert 0 < moments.diagnostics["max_depth"] <= 20
    assert moments.diagnostics["worst_error_fraction"] <= 1.0
    with pytest.raises(SmoothnessError):
        obstruction_field(body, uniform_points=POINTS)


@pytest.mark.parametrize("name,dim", BODIES)
def test_mixed_batch_returns_each_grid_row_bit_for_bit(name, dim):
    # A batch of every 7th interior row, walked at once, gives each row's
    # bits; a point off the field's nodes is refused (ValueError).
    fld = _field(name, dim)
    g = field_g(_body(name, dim), uniform_points=POINTS)
    joints = [t for t, _, _ in fld.breakpoint_classes]
    rows = {t: v for t, v in zip(fld.grid, fld.continuous_values) if t not in joints}
    ts = sorted(rows)
    on_grid = np.array(ts[1::7])
    assert box_operator(g, dim, on_grid).tolist() == [rows[t] for t in on_grid]
    off_grid = 0.5 * (ts[1] + ts[2])
    with pytest.raises(ValueError, match="is not a node of the moment table"):
        box_operator(g, dim, np.append(on_grid, off_grid))


def test_near_axis_rows_in_dimension_6_decide_nothing():
    # The field is about +36 t^2 there, but the jet of x^3/h divides by
    # h ~ t^5 and the rows below t = 1e-4 read rounding noise (-5.9e-3 at
    # t = 1e-6).  They stay in the output and decide nothing.
    grid = [1e-6, 3e-6, 1e-5, 0.05, 0.1]
    fld = obstruction_field(_body("lp_revolution", 6), grid=grid)
    assert fld.grid == grid and len(fld.continuous_values) == len(grid)
    assert fld.continuous_values[0] < -fld.negativity_tol
    assert [t for t, _ in fld.excluded] == grid[:3]
    assert fld.verdict == "Inconclusive"
    assert fld.min_location == 0.05 and fld.min_value > 0.0
    assert fld.sign_changes == [] and fld.witness is None
    # Dimension 4 has no such rows.
    assert obstruction_field(_body("lp_revolution", 4), grid=grid).excluded == []
