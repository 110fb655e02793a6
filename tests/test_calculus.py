"""Quadrature, one-sided limits, root finding, derivative cross-checks."""

import ast
import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ibodies
from ibodies import calculus
from ibodies.calculus import (DEFAULT_SETTINGS, QuadratureRequest, RootBracket,
                              Settings, find_root, integrate, sorted_unique)
from ibodies.errors import InvalidBracket, NoConvergence
from ibodies.families import FAMILY_NAMES, FamilySpec, instantiate
from helpers import Divergent, bracket, fd_check, one_sided_limit
import reference_quadpack

SQ2 = math.sqrt(0.5)


def _rho(name, **params):
    profile = instantiate(FamilySpec(name, params)).profile
    return profile


def _integral(fn, x=1.0, breakpoints=()):
    """int_0^x fn: one pass with the single node x."""
    return integrate(QuadratureRequest(fn, [x], breakpoints)).values[0, 0]


# --------------------------------------------------------------- quadrature

def test_polynomial_integral():
    val = _integral(lambda t: t * t)
    assert abs(val - 1.0 / 3.0) < 1e-14


def test_capped_cylinder_cubed_moment():
    # int_0^1 rho^3 dt = 5/16 for the radius-1/2 capped cylinder.
    rho = _rho("cyl_caps")
    val = _integral(lambda t: rho.eval_array(t) ** 3, 1.0, rho.breakpoint_locations)
    assert abs(val - 5.0 / 16.0) < 1e-10


def test_cylinder_fifth_moments():
    # int rho^5 (1-t^2) dt = 5/4 and int rho^5 t^2 dt = 5/6 for the cylinder.
    # Both reduce to elementary pieces:
    #   left:  (1-t^2)^(-3/2) and t^2 (1-t^2)^(-5/2) on [0, 1/sqrt(2)]
    #   right: (1-t^2)/t^5 and 1/t^3 on [1/sqrt(2), 1].
    rho = _rho("cylinder")
    bps = rho.breakpoint_locations
    h1 = _integral(lambda t: rho.eval_array(t) ** 5 * (1.0 - t * t), 1.0, bps)
    k1 = _integral(lambda t: rho.eval_array(t) ** 5 * t * t, 1.0, bps)
    assert abs(h1 - 1.25) < 1e-10
    assert abs(k1 - 5.0 / 6.0) < 1e-10


def test_breakpoint_splitting_handles_kinks():
    fn = lambda t: abs(t - SQ2)
    exact = (SQ2 ** 2 + (1.0 - SQ2) ** 2) / 2.0
    val = _integral(fn, 1.0, [SQ2])
    assert abs(val - exact) < 1e-13


def test_linearity_and_interval_additivity():
    f = lambda t: np.exp(-t)
    g = lambda t: t ** 3
    lhs = _integral(lambda t: 2.0 * f(t) - 0.5 * g(t))
    rhs = 2.0 * _integral(f) - 0.5 * _integral(g)
    assert abs(lhs - rhs) < 1e-12
    whole = _integral(f)
    # int_0.37^1 f as int_0^0.63 of f shifted by 0.37.
    split = _integral(f, 0.37) + _integral(lambda t: f(t + 0.37), 0.63)
    assert abs(whole - split) < 1e-13


def test_divergent_integral_raises():
    with pytest.raises(NoConvergence):
        _integral(lambda t: 1.0 / t)


def test_empty_interval_rejected():
    for nodes in ([], [0.0, 0.0]):
        with pytest.raises(ValueError):
            integrate(QuadratureRequest(lambda t: t, nodes))


def test_exterior_breakpoints_are_dropped():
    res = integrate(QuadratureRequest(lambda t: t, [0.25, 0.75], [-0.1, 0.5, 0.9]))
    assert res.panels == 3  # [0, 0.25, 0.5, 0.75]: only 0.5 splits a panel
    assert np.max(np.abs(res.values[0] - [0.25 ** 2 / 2, 0.75 ** 2 / 2])) < 1e-15


def test_tolerance_overrides():
    settings = Settings(rel_tol=1e-6)
    req = QuadratureRequest(lambda t: t, [1.0], settings=settings)
    assert req.settings is settings
    assert QuadratureRequest(lambda t: t, [1.0]).settings is DEFAULT_SETTINGS
    for bad in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite and at least 50 eps"):
            Settings(rel_tol=bad)
    with pytest.raises(AttributeError):
        settings.rel_tol = 1e-3  # frozen


def test_settings_has_one_relative_tolerance():
    assert [f.name for f in dataclasses.fields(Settings)] == ["rel_tol"]
    assert not hasattr(calculus, "DEFAULT_ABS_TOL")


def test_a_tolerance_below_the_error_floor_is_refused():
    # Every panel's error estimate is at least 50 eps of its integral of
    # |f| (QUADPACK's floor), so a tighter relative tolerance cannot be met.
    assert calculus.MIN_REL_TOL == 50.0 * np.finfo(float).eps
    for tight in (1e-15, 0.99 * calculus.MIN_REL_TOL):
        with pytest.raises(ValueError, match=r"at least 50 eps = 1\.11e-14, got"):
            Settings(rel_tol=tight)
    floor = Settings(rel_tol=calculus.MIN_REL_TOL)
    res = integrate(QuadratureRequest(np.exp, [1.0], settings=floor))
    assert abs(res.values[0, 0] - math.expm1(1.0)) <= 1e-14


# ------------------------------------------------------ cumulative quadrature

def test_cumulative_is_exact_on_low_degree_polynomials():
    # Gauss-Kronrod 7/15 integrates degree <= 22 exactly on every panel.
    nodes = np.linspace(0.05, 1.0, 20)
    degrees = (0, 1, 5, 13)
    res = integrate(QuadratureRequest(lambda t: np.stack([t ** d for d in degrees]), nodes))
    for row, d in zip(res.values, degrees):
        assert np.max(np.abs(row - nodes ** (d + 1) / (d + 1))) < 1e-15
    assert res.max_depth == 0
    assert res.panels == 20
    assert res.evaluations == 15 * 20


def test_cumulative_degree_22_is_exact_but_refines_its_first_panel():
    # The Gauss rule inside the error estimate is exact only to degree 13:
    # on [0, 0.05], where t^22 integrates to 5e-32, its estimate misses the
    # relative tolerance, so that panel is bisected twice (4 panels for 1).
    nodes = np.linspace(0.05, 1.0, 20)
    res = integrate(QuadratureRequest(lambda t: t ** 22, nodes))
    assert np.max(np.abs(res.values[0] - nodes ** 23 / 23)) < 1e-15
    assert (res.max_depth, res.panels) == (2, 24)


def test_cumulative_converges_on_a_signed_integrand_that_cancels():
    # int_0^1 (t - 1/2) dt = 0: the tolerance is relative to int |f| = 1/4,
    # not to the vanishing value, so the pass converges at once.
    res = integrate(QuadratureRequest(lambda t: t - 0.5, [0.5, 1.0]))
    assert abs(res.values[0, 1]) < 1e-16
    assert abs(res.values[0, 0] + 0.125) < 1e-16
    assert res.max_depth == 0 and res.worst_error_fraction <= 1.0


def test_cumulative_zero_integrand_has_no_error():
    res = integrate(QuadratureRequest(lambda t: 0.0 * t, [0.5, 1.0]))
    assert not res.values.any()
    assert res.worst_error_fraction == 0.0


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_cumulative_agrees_with_integrate_for_every_builtin(name):
    params = {"cyl_caps_KM": {"M": 2.25}, "octagon_Kb": {"b": 0.65},
              "lp_revolution": {"p": 4.5}}.get(name, {})
    rho = _rho(name, **params)
    bps = rho.breakpoint_locations
    nodes = sorted(set(np.linspace(1e-6, 1.0, 9).tolist() + bps))
    for n in (4, 6):
        def q(t):
            return rho.eval_array(t) ** (n - 1)

        res = integrate(QuadratureRequest(lambda t: np.stack([q(t), t * t * q(t)]), nodes, bps))
        for k, x in enumerate(nodes):
            want_b = reference_quadpack.integrate(
                lambda t: rho.value(t) ** (n - 1), 0.0, x, bps)
            want_c = reference_quadpack.integrate(
                lambda t: t * t * rho.value(t) ** (n - 1), 0.0, x, bps)
            assert abs(res.values[0, k] - want_b) <= 1e-12 * abs(want_b)
            assert abs(res.values[1, k] - want_c) <= 1e-12 * abs(want_c)


def test_cumulative_step_integrand_split_at_its_breakpoint():
    # A panel straddling the jump would make the rule inexact and force
    # bisection; split at the breakpoint, every panel sees a constant.
    def step(t):
        return np.where(t < 0.3, 1.0, 2.0)

    nodes = [0.1, 0.2, 0.5, 1.0]
    res = integrate(QuadratureRequest(step, nodes, breakpoints=[0.3]))
    exact = [0.1, 0.2, 0.3 + 2.0 * 0.2, 0.3 + 2.0 * 0.7]
    assert np.max(np.abs(res.values[0] - exact)) < 1e-15
    assert res.panels == 5 and res.max_depth == 0
    unsplit = integrate(QuadratureRequest(step, nodes))
    assert unsplit.max_depth > 0


def test_cumulative_rejects_non_finite_integrands():
    with pytest.raises(NoConvergence):
        integrate(QuadratureRequest(lambda t: np.where(t > 0.5, np.nan, 1.0), [1.0]))
    with pytest.raises(NoConvergence):
        integrate(QuadratureRequest(lambda t: np.where(t > 0.5, np.inf, 1.0), [0.25, 1.0]))


def test_cumulative_divergent_integral_raises():
    with pytest.raises(NoConvergence):
        integrate(QuadratureRequest(lambda t: 1.0 / t, [1.0]))


def test_cumulative_empty_interval_rejected():
    with pytest.raises(ValueError):
        integrate(QuadratureRequest(lambda t: t, [0.0]))
    with pytest.raises(ValueError):
        integrate(QuadratureRequest(lambda t: t, [-0.5, 0.5]))


@pytest.mark.parametrize("nodes", [[math.nan], [math.inf], [0.5, math.nan]])
def test_non_finite_nodes_are_refused_by_name(nodes):
    bad = next(x for x in nodes if not math.isfinite(x))
    with pytest.raises(ValueError, match=f"got {bad}$"):
        integrate(QuadratureRequest(lambda t: t, nodes))


def test_cumulative_follows_default_tolerances():
    # sqrt has an endpoint singularity in its derivative: the work needed
    # depends on the tolerance passed, and a loose call leaves no trace on
    # the defaults.
    fn = np.sqrt
    tight = integrate(QuadratureRequest(fn, [1.0]))
    loose = integrate(QuadratureRequest(fn, [1.0], settings=Settings(1e-4)))
    again = integrate(QuadratureRequest(fn, [1.0]))
    assert loose.evaluations < tight.evaluations
    assert again.evaluations == tight.evaluations
    assert again.values[0, 0] == tight.values[0, 0]
    assert abs(tight.values[0, 0] - 2.0 / 3.0) < 1e-10
    assert abs(loose.values[0, 0] - 2.0 / 3.0) < 1e-4


def test_cumulative_explicit_tolerances_override_the_defaults():
    fn = np.sqrt
    tight = integrate(QuadratureRequest(fn, [1.0]))
    loose = integrate(QuadratureRequest(fn, [1.0], settings=Settings(rel_tol=1e-4)))
    assert loose.evaluations < tight.evaluations
    assert abs(loose.values[0, 0] - 2.0 / 3.0) < 1e-4
    assert calculus.DEFAULT_REL_TOL == 1e-10


def test_import_loads_no_scipy():
    # The library has one quadrature routine, in numpy; scipy is a test-only
    # dependency (the QUADPACK reference).
    code = "import sys, ibodies; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_worker_pool_module():
    # concurrent.futures (which pulls in logging) and multiprocessing would
    # add to the import time every CLI process pays.
    code = ("import sys, ibodies; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_another_modules_private_names():
    # A name with a leading underscore belongs to its module; another module
    # that needs it should get a public one.
    offences = []
    for path in sorted(Path(ibodies.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "ibodies":
                continue
            offences += [f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                         for alias in node.names
                         if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert offences == []


def test_no_module_imports_a_concurrency_module():
    # The library runs on the calling thread: its results then depend on no
    # thread count and no process-wide worker setting.
    banned = {"threading", "multiprocessing", "concurrent"}
    offences = []
    for path in sorted(Path(ibodies.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offences += [f"{path.name}: {name}" for name in names
                         if name.split(".")[0] in banned]
    assert offences == []


# ---------------------------------------------------------- one-sided limits

def test_one_sided_limit_of_removable_singularity():
    val = one_sided_limit(lambda t: math.sin(t) / t, 0.0, "right")
    assert abs(val - 1.0) < 1e-10


def test_one_sided_limits_disagree_across_jump():
    fn = lambda t: 1.0 if t > 0.5 else 0.0
    assert abs(one_sided_limit(fn, 0.5, "right") - 1.0) < 1e-12
    assert abs(one_sided_limit(fn, 0.5, "left")) < 1e-12


def test_one_sided_limit_divergence():
    with pytest.raises(Divergent):
        one_sided_limit(lambda t: 1.0 / (t - 0.5), 0.5, "right")


def test_one_sided_limit_rejects_bad_side():
    with pytest.raises(ValueError):
        one_sided_limit(lambda t: t, 0.5, "up")


# ------------------------------------------------------------- root finding

def test_bisect_finds_cosine_root():
    root = find_root(math.cos, bracket(math.cos, 1.0, 2.0)).root
    assert abs(root - math.pi / 2.0) < 1e-11


def _recorded(fn):
    """fn, and the list of (x, fn(x)) pairs it has been called with."""
    calls = []

    def recorded(x):
        calls.append((x, fn(x)))
        return calls[-1][1]
    return recorded, calls


def test_find_root_locates_a_jump_in_bisections_count():
    # A step, the shape of a verdict that flips: no interpolation helps, and
    # bisection needs ceil(log2(1e10)) = 34 halvings of [0, 1] to reach 1e-10.
    jump = 1.0 / 3.0
    fn, calls = _recorded(lambda x: -1.0 if x < jump else 1.0)
    root = find_root(fn, RootBracket(0.0, 1.0, -1.0, 1.0), x_tol=1e-10).root
    assert abs(root - jump) <= 1e-10
    assert len(calls) <= 34 + 2


def test_find_root_returns_the_final_bracket_it_evaluated():
    # The root and the far end are evaluated points, with the values fn gave
    # there, a sign change between them and no wider than Brent's stop.
    for step in (lambda x: -1.0 if x < 1.0 / 3.0 else 1.0, lambda x: x - 0.3):
        fn, calls = _recorded(step)
        refined = find_root(fn, RootBracket(0.0, 1.0, -1.0, 1.0), x_tol=1e-10)
        values = dict(calls + [(0.0, -1.0), (1.0, 1.0)])
        assert values[refined.root] == refined.value
        assert values[refined.far] == refined.far_value
        assert refined.value * refined.far_value <= 0.0
        assert abs(refined.far - refined.root) <= 2e-10
        assert abs(refined.value) <= abs(refined.far_value)


def test_find_root_converges_on_a_triple_root():
    # Interpolation crawls towards a multiple root; the bisection fallback
    # still closes the bracket inside the evaluation cap.
    fn, calls = _recorded(lambda x: (x - 0.3) ** 3)
    root = find_root(fn, RootBracket(0.0, 1.0, -0.3 ** 3, 0.7 ** 3), x_tol=1e-10).root
    assert abs(root - 0.3) <= 1e-10
    assert len(calls) < calculus._ROOT_MAX_ITER


def test_find_root_near_a_square_root_singularity():
    # The slope is infinite at the bracket's lower end, as w(M) is at M = 1,
    # and the root lies close to it.
    fn, calls = _recorded(lambda x: 1e-3 - math.sqrt(x))
    root = find_root(fn, RootBracket(0.0, 1.0, 1e-3, 1e-3 - 1.0), x_tol=1e-10).root
    assert abs(root - 1e-6) <= 1e-10
    assert len(calls) <= 34


def test_find_root_stays_in_the_bracket_next_to_a_sign_change():
    # Roots a hair from either end, and margins whose signs are noise: the
    # result lies in the bracket and within x_tol (plus rounding) of an
    # evaluated point whose value has the other sign.  Every case is
    # negative at its lower end.
    rng = np.random.default_rng(20240817)
    cases = [(lambda x: x - 1e-13, 0.0, 1.0), (lambda x: x - (1.0 - 1e-13), 0.0, 1.0),
             (lambda x: math.atan(1e6 * (x - 2.0)), 2.0 - 1e-9, 3.0)]
    cases += [(lambda x: rng.standard_normal(), -1.0, 2.0)] * 20
    for fn, lower, upper in cases:
        fn, calls = _recorded(fn)
        calls += [(lower, -1.0), (upper, 1.0)]
        root = find_root(fn, RootBracket(lower, upper, -1.0, 1.0), x_tol=1e-10).root
        assert lower <= root <= upper
        f_root = dict(calls)[root]
        assert f_root == 0.0 or any(
            abs(x - root) <= 1e-10 + 4.0 * np.finfo(float).eps * abs(root) and f * f_root < 0.0
            for x, f in calls), root


def test_find_root_at_zero_tolerance_stops_at_rounding():
    # A bracket of adjacent doubles cannot shrink: the rounding term ends it.
    root = find_root(math.cos, bracket(math.cos, 1.0, 2.0), x_tol=0.0).root
    assert abs(root - math.pi / 2.0) <= 4.0 * np.finfo(float).eps * root


def test_find_root_raises_when_the_cap_runs_out_or_a_value_is_nan(monkeypatch):
    monkeypatch.setattr(calculus, "_ROOT_MAX_ITER", 3)
    with pytest.raises(NoConvergence, match="after 3 evaluations"):
        find_root(math.cos, bracket(math.cos, 1.0, 2.0), x_tol=1e-12)
    monkeypatch.undo()
    with pytest.raises(NoConvergence, match="NaN"):
        find_root(lambda x: math.nan, bracket(math.cos, 1.0, 2.0))


def test_bracket_validation():
    with pytest.raises(InvalidBracket):
        RootBracket(0.0, 1.0, 2.0, 3.0)  # same sign
    with pytest.raises(InvalidBracket):
        RootBracket(1.0, 0.0, -1.0, 1.0)  # reversed interval


# ------------------------------------------------- finite-difference checks

def test_fd_check_confirms_analytic_derivatives():
    analytic, numeric, rel = fd_check(math.exp, math.exp, 0.3, order=1)
    assert rel < 1e-10
    analytic, numeric, rel = fd_check(
        lambda t: math.sin(2.0 * t), lambda t: -4.0 * math.sin(2.0 * t),
        0.7, order=2)
    assert rel < 1e-7


def test_fd_check_flags_a_wrong_derivative():
    _, _, rel = fd_check(math.exp, lambda t: 2.0 * math.exp(t), 0.3, order=1)
    assert rel > 0.5


def test_fd_check_order_validation():
    with pytest.raises(ValueError):
        fd_check(math.exp, math.exp, 0.3, order=3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300]),
                                 st.floats(allow_nan=False)), max_size=40))
def test_sorted_unique_has_the_bytes_of_np_unique(values):
    # Duplicates and both signed zeros are drawn often: of 0.0 and -0.0 the
    # first in sorted order is kept, as np.unique keeps it.
    x = np.array(values, dtype=float)
    got = sorted_unique(x)
    assert got.dtype == np.float64 and got.shape == np.unique(x).shape
    assert got.tobytes() == np.unique(x).tobytes()
    assert sorted_unique(np.empty(0)).shape == (0,)
    assert sorted_unique(x.reshape(-1, 1)).tobytes() == got.tobytes()
