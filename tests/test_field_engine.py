"""The cumulative moment engine against the scalar route it replaced.

Every builtin family, in dimensions 4 and 6, at a catalogue-sized grid: the
field computed from one cumulative moment pass must have the same rows,
flags, atoms and verdict as the library's own chain driven by per-row scalar
quadrature (``reference_moments``), and the same values on every 10th row,
every joint row and the minimum row.

The axis row t = 1e-6 is left out of the value comparison: in dimension 6
its jet of x^3/h cancels catastrophically, so rounding-level differences in
B and C move it by up to ~1.6e-4 max|field| under either engine.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibodies.families import FAMILY_NAMES, FamilySpec, instantiate
from ibodies.profile import BodyOfRevolution, Piece, RadialProfile, add, mul, sub, var_t
from ibodies.transform import _EPS_AXIS, box_operator, obstruction_field
from reference_moments import reference_g, reference_rows, reference_value

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
    if name == "cylinder" and dim == 6:
        # The closed-form intersection profile needs no moments.
        assert first.diagnostics["panels"] == 0
    else:
        # Every row's abscissa ends a panel; each panel costs 15 evaluations.
        assert first.diagnostics["panels"] >= len(set(first.grid))
        assert first.diagnostics["integrand_evals"] >= 15 * first.diagnostics["panels"]


def test_field_keeps_the_g_it_evaluated():
    fld = _field("three_bodies_L", 6)
    k = len(fld.grid) // 2
    assert box_operator(fld.g, 6, fld.grid[k]) == fld.continuous_values[k]
    assert "DerivedProfile" not in repr(fld)
    assert "panels" not in fld.summary()


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
