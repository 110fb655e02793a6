"""Builtin body families, closed-form cross-checks, parameter sweeps."""

import math

import numpy as np
import pytest

from ibodies import families
from ibodies.calculus import find_root
from ibodies.criteria import _sixdim_moments, cor6_check
from ibodies.errors import InvalidParam
from ibodies.families import (DEFAULT_DIMENSION, FAMILY_NAMES, MAX_GRID_POINTS,
                              REFINE_TOL, FamilySpec, instantiate, lp_threshold,
                              step_grid, sweep)
from helpers import bracket
from reference_closed_forms import (octagon_h1_closed, octagon_k1_closed,
                                    octagon_margin, octagon_margin_closed,
                                    w_of_M, w_of_M_closed)

SQ2 = math.sqrt(0.5)


def _profile(name, dim=None, **params):
    return instantiate(FamilySpec(name, params, dim)).profile


# ------------------------------------------------------------ instantiation

def test_every_family_instantiates_with_defaults():
    needs = {"cyl_caps_KM": {"M": 2}, "octagon_Kb": {"b": 0.5},
             "lp_revolution": {"p": 3}}
    for name in FAMILY_NAMES:
        body = instantiate(FamilySpec(name, needs.get(name, {})))
        assert body.dimension == DEFAULT_DIMENSION[name]
        assert body.profile.value(0.5) > 0.0


def test_tangent_cap_case_doubles_the_small_capped_cylinder():
    # M=1 caps are tangent; the body is the radius-1/2 capped cylinder
    # dilated by 2.
    km1 = _profile("cyl_caps_KM", M=1)
    small = _profile("cyl_caps")
    for t in np.linspace(0.0, 1.0, 41):
        assert abs(km1.value(float(t)) - 2.0 * small.value(float(t))) < 1e-12


def test_octagon_limits():
    # b=1 closes the octagon into the square, i.e. the cylinder.
    square = _profile("octagon_Kb", b=1)
    cyl = _profile("cylinder")
    for t in np.linspace(0.0, 1.0, 41):
        assert abs(square.value(float(t)) - cyl.value(float(t))) < 1e-12
    # b=0 degenerates to the double cone: one diagonal piece.
    cone = _profile("octagon_Kb", b=0)
    assert len(cone.pieces) == 1
    assert abs(cone.value(0.5) - 1.0 / (0.5 + math.sqrt(0.75))) < 1e-14


def test_lp_family_contains_the_ball():
    two = _profile("lp_revolution", p=2)
    for t in (0.1, 0.6, 0.95):
        assert abs(two.value(t) - 1.0) < 1e-13


def test_scale_parameter():
    body = instantiate(FamilySpec("ball", {"scale": 3.0}))
    assert abs(body.profile.value(0.4) - 3.0) < 1e-14


def test_parameter_validation():
    with pytest.raises(InvalidParam):
        FamilySpec("dodecahedron", {})
    with pytest.raises(InvalidParam):
        instantiate(FamilySpec("cyl_caps_KM", {}))            # missing M
    with pytest.raises(InvalidParam):
        instantiate(FamilySpec("ball", {"M": 2}))             # extraneous
    with pytest.raises(InvalidParam):
        instantiate(FamilySpec("cyl_caps_KM", {"M": 0.5}))    # cap too small
    with pytest.raises(InvalidParam):
        instantiate(FamilySpec("octagon_Kb", {"b": 1.5}))
    with pytest.raises(InvalidParam):
        instantiate(FamilySpec("lp_revolution", {"p": -1}))
    with pytest.raises(InvalidParam):
        instantiate(FamilySpec("ball", {"scale": 0.0}))


# ------------------------------------------------------ capped-cylinder w(M)

def test_w_at_tangency_is_two():
    assert abs(w_of_M(1.0) - 2.0) < 1e-10
    assert abs(w_of_M_closed(1.0) - 2.0) < 1e-14


def test_w_quadrature_matches_closed_form():
    for M in (1.5, 2.0, 5.0):
        quad = w_of_M(M)
        closed = w_of_M_closed(M)
        assert abs(quad - closed) < 1e-8 * max(1.0, abs(closed))


def test_w_limit_for_huge_caps():
    # Enormous caps flatten toward the tangent case value 2.
    assert abs(w_of_M(1e6) - 2.0) < 1e-3


def test_w_sign_changes_in_published_brackets():
    # Positive at tangency, a window of failure, then positive again.
    assert w_of_M(1.01942) > 0.0 > w_of_M(1.01943)
    assert w_of_M(1.31290) < 0.0 < w_of_M(1.31291)
    assert w_of_M(1.0) > 0.0 and w_of_M(1.1) < 0.0 and w_of_M(2.0) > 0.0


def test_w_rejects_small_caps():
    with pytest.raises(InvalidParam):
        w_of_M(0.99)


# ------------------------------------------------------------ octagon family

def test_octagon_moment_closed_forms():
    for b in np.linspace(0.01, 1.0, 100):
        profile = _profile("octagon_Kb", b=float(b))
        h1, k1 = _sixdim_moments(profile)
        assert abs(h1 - octagon_h1_closed(b)) < 1e-10
        assert abs(k1 - octagon_k1_closed(b)) < 1e-10


def test_octagon_margin_matches_closed_form():
    for b in (0.2, 0.5, 0.8263, 0.95):
        assert abs(octagon_margin(b) - octagon_margin_closed(b)) < 1e-9


def test_octagon_threshold_parameter():
    root = find_root(octagon_margin_closed,
                     bracket(octagon_margin_closed, 0.7, 0.9),
                     x_tol=1e-12)
    assert abs(root - 0.826279) < 1e-5
    assert octagon_margin(0.5) > 0.0          # satisfied below the threshold
    assert octagon_margin(0.9) < 0.0          # fails above it
    assert octagon_margin(1.0) < 0.0


def test_octagon_margin_domain():
    with pytest.raises(InvalidParam):
        octagon_margin(0.0)
    with pytest.raises(InvalidParam):
        octagon_margin(1.1)


# ----------------------------------------------------------------- l^p family

def test_lp_flat_top_margins_bracket_the_threshold():
    assert cor6_check(_profile("lp_revolution", p=9.5)).margin > 0.0
    assert cor6_check(_profile("lp_revolution", p=9.6)).margin < 0.0


def test_lp_threshold_root():
    result = lp_threshold(9.0, 10.0, 0.1)
    assert result.criterion == "cor6"
    assert len(result.roots) == 1
    assert abs(result.roots[0] - 9.525037783) < 1e-6
    # The grid endpoints straddle the sign change.
    assert result.margins[0] > 0.0 > result.margins[-1]


def test_lp_threshold_grid_stops_at_p_hi():
    # 4.0 + 6 * 0.2 = 5.2 lies past p_hi; the grid ends at 5.14 instead.
    result = lp_threshold(4.0, 5.14, 0.2)
    assert result.grid == [4.0 + i * 0.2 for i in range(6)] + [5.14]
    assert len(result.margins) == 7


def test_step_grid():
    assert step_grid(9.0, 10.0, 0.1) == [9.0 + i * 0.1 for i in range(11)]
    assert step_grid(1.0, 1.25, 0.1) == [1.0, 1.0 + 0.1, 1.0 + 2 * 0.1, 1.25]
    assert step_grid(1.0, 1.28, 0.1) == [1.0, 1.0 + 0.1, 1.0 + 2 * 0.1, 1.28]
    assert step_grid(0.0, 1.0, 2.0) == [0.0, 1.0]
    for lo, hi, step in [(1.0, math.inf, 0.1), (math.nan, 2.0, 0.1),
                         (1.0, 2.0, math.nan)]:
        with pytest.raises(InvalidParam):
            step_grid(lo, hi, step)


def test_step_grid_refuses_oversized_grids():
    # 10^12 points would exhaust memory; the check runs before any is built.
    with pytest.raises(InvalidParam, match="more than 100000 grid points"):
        step_grid(0.0, 1.0, 1e-12)
    assert len(step_grid(0.0, 1.0, 1.0 / (MAX_GRID_POINTS - 1))) == MAX_GRID_POINTS


def test_family_spec_rejects_non_finite_params():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParam, match="must be finite"):
            FamilySpec("lp_revolution", {"p": value})
        with pytest.raises(InvalidParam, match="must be finite"):
            FamilySpec("ball", {"scale": value})


def test_lp_threshold_validation():
    with pytest.raises(InvalidParam):
        lp_threshold(1.5, 10.0, 0.1)
    with pytest.raises(InvalidParam):
        lp_threshold(9.0, 10.0, -0.1)


# --------------------------------------------------------------------- sweeps

def test_sweep_refines_the_octagon_root():
    result = sweep(FamilySpec("octagon_Kb", {"b": 0.5}, 6), "b",
                   [0.4, 0.6, 0.8, 0.9, 1.0], criterion="cor6")
    assert result.verdicts[0] == "NotPolarZonoid"
    assert result.verdicts[-1] == "Inconclusive"
    assert len(result.roots) == 1
    assert abs(result.roots[0] - 0.8262789284) < 1e-7
    lo, hi = result.brackets[0]
    assert lo <= result.roots[0] <= hi


# Golden roots, to 17 digits, of the three sweeps perfbench runs; a root
# refined to REFINE_TOL lies within REFINE_TOL of them.  The cyl_caps_KM and
# octagon_Kb roots are find_root on w_of_M_closed and octagon_margin_closed
# over the same grid cells at x_tol=1e-15; the l^p root, which has no closed
# form, is a bisected sweep's output.
_GOLDEN_SWEEPS = [
    (lambda: sweep(FamilySpec("cyl_caps_KM", {"M": 1.0}, 4), "M",
                   [round(1.0 + 0.1 * i, 10) for i in range(21)]),
     [1.0194201959215785, 1.3129092018858253]),
    (lambda: sweep(FamilySpec("octagon_Kb", {"b": 0.5}, 6), "b",
                   [round(0.05 + 0.05 * i, 10) for i in range(20)], criterion="cor6"),
     [0.8262789284131968]),
    (lambda: lp_threshold(9.0, 10.0, 0.1), [9.525037782763441]),
]


@pytest.mark.parametrize("run, golden", _GOLDEN_SWEEPS, ids=["cyl_caps_KM", "octagon_Kb", "lp"])
def test_sweep_roots_stay_within_refine_tol_of_the_goldens(run, golden):
    result = run()
    assert len(result.roots) == len(golden)
    for root, want in zip(result.roots, golden):
        assert abs(root - want) < REFINE_TOL, (root, want)
    # Each bracket is the grid cell whose end margins change sign.
    for (lo, hi), root in zip(result.brackets, result.roots):
        i = result.grid.index(lo)
        assert result.grid[i + 1] == hi and lo <= root <= hi
        assert result.margins[i] * result.margins[i + 1] < 0.0


@pytest.mark.parametrize("run, golden", _GOLDEN_SWEEPS, ids=["cyl_caps_KM", "octagon_Kb", "lp"])
def test_sweep_refines_each_root_in_few_margin_evaluations(run, golden, monkeypatch):
    # One margin per grid point, then at most 10 per root: bisection to
    # REFINE_TOL spends about 30.
    calls = []
    check = families.check_for_dimension

    def counted(*args):
        calls.append(args)
        return check(*args)
    monkeypatch.setattr(families, "check_for_dimension", counted)
    result = run()
    assert len(result.roots) == len(golden)
    assert len(calls) <= len(result.grid) + 10 * len(result.roots), len(calls)


def test_sweep_records_errors_without_aborting():
    # b=0 has no finite axis slope: the point is reported, not fatal.
    result = sweep(FamilySpec("octagon_Kb", {"b": 0.5}, 6), "b",
                   [0.0, 0.4, 0.9], criterion="cor6")
    assert result.verdicts[0] == "error:SmoothnessError"
    assert math.isnan(result.margins[0])
    assert result.verdicts[1] == "NotPolarZonoid"
    assert len(result.roots) == 1          # bracket skips the error point


def test_sweep_verdicts_constant_under_scale():
    result = sweep(FamilySpec("ball", {}, 4), "scale",
                   [0.5, 1.0, 2.0, 4.0], criterion="prop1")
    assert all(v == "Inconclusive" for v in result.verdicts)
    assert result.roots == []


def test_sweep_refuses_a_criterion_of_another_dimension():
    for dim, criterion, applies_to in ((4, "cor6", 6), (None, "prop4", 6), (6, "prop1", 4)):
        with pytest.raises(ValueError, match=f"^{criterion} applies to dimension {applies_to}$"):
            sweep(FamilySpec("cyl_caps_KM", {"M": 1.0}, dim), "M", [1.0, 1.1, 1.2],
                  criterion=criterion)


def test_sweep_grid_must_increase():
    with pytest.raises(ValueError):
        sweep(FamilySpec("ball", {}, 4), "scale", [1.0, 0.5, 2.0])


def test_sweep_csv_layout():
    import io
    result = sweep(FamilySpec("octagon_Kb", {"b": 0.5}, 6), "b",
                   [0.0, 0.4, 0.9], criterion="cor6")
    buf = io.StringIO()
    result.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "param,margin,verdict,is_root"
    assert lines[1].endswith("error:SmoothnessError,0")
    assert lines[1].split(",")[1] == ""    # NaN margin serializes empty
    assert lines[-1].endswith(",root,1")
    assert "roots:" in result.summary()


def test_step_grid_refuses_a_bad_step_or_range():
    for lo, hi, step, match in [(0.0, 1.0, -0.1, "step must be positive"),
                                (0.0, 1.0, 0.0, "step must be positive"),
                                (1.0, 0.0, 0.1, "lo < hi"),
                                (1.0, 1.0, 0.1, "lo < hi")]:
        with pytest.raises(InvalidParam, match=match):
            step_grid(lo, hi, step)
    # lp_threshold keeps only its own bound on p and leaves the grid to step_grid.
    with pytest.raises(InvalidParam, match="lo < hi"):
        lp_threshold(10.0, 9.0, 0.1)
    with pytest.raises(InvalidParam, match="step must be positive"):
        lp_threshold(9.0, 10.0, 0.0)
