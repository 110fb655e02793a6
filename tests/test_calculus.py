"""Quadrature, one-sided limits, root finding, derivative cross-checks."""

import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ibodies
from ibodies import calculus
from ibodies.calculus import (DEFAULT_SETTINGS, QuadratureRequest, RootBracket,
                              Settings, bisect, integrate)
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
    settings = Settings(rel_tol=1e-6, abs_tol=1e-9)
    req = QuadratureRequest(lambda t: t, [1.0], settings=settings)
    assert req.settings is settings
    assert QuadratureRequest(lambda t: t, [1.0]).settings is DEFAULT_SETTINGS
    for bad in ({"rel_tol": -1.0}, {"abs_tol": 0.0}, {"rel_tol": math.inf},
                {"abs_tol": math.nan}):
        with pytest.raises(ValueError, match="must be positive and finite"):
            Settings(**bad)
    with pytest.raises(AttributeError):
        settings.rel_tol = 1e-3  # frozen


# ------------------------------------------------------ cumulative quadrature

def test_cumulative_is_exact_on_low_degree_polynomials():
    # Gauss-Kronrod 7/15 integrates degree <= 22 exactly on every panel.
    nodes = np.linspace(0.05, 1.0, 20)
    degrees = (0, 1, 5, 13, 22)
    res = integrate(QuadratureRequest(lambda t: np.stack([t ** d for d in degrees]), nodes))
    for row, d in zip(res.values, degrees):
        assert np.max(np.abs(row - nodes ** (d + 1) / (d + 1))) < 1e-15
    assert res.max_depth == 0
    assert res.panels == 20
    assert res.evaluations == 15 * 20


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
    loose = integrate(QuadratureRequest(fn, [1.0], settings=Settings(1e-4, 1e-6)))
    again = integrate(QuadratureRequest(fn, [1.0]))
    assert loose.evaluations < tight.evaluations
    assert again.evaluations == tight.evaluations
    assert again.values[0, 0] == tight.values[0, 0]
    assert abs(tight.values[0, 0] - 2.0 / 3.0) < 1e-10
    assert abs(loose.values[0, 0] - 2.0 / 3.0) < 1e-4


def test_cumulative_explicit_tolerances_override_the_defaults():
    fn = np.sqrt
    tight = integrate(QuadratureRequest(fn, [1.0]))
    for loose_tol in ({"rel_tol": 1e-4}, {"abs_tol": 1e-4}):
        loose = integrate(QuadratureRequest(fn, [1.0], settings=Settings(**loose_tol)))
        assert loose.evaluations < tight.evaluations
        assert abs(loose.values[0, 0] - 2.0 / 3.0) < 1e-4
    assert (calculus.DEFAULT_REL_TOL, calculus.DEFAULT_ABS_TOL) == (1e-10, 1e-12)


def test_import_loads_no_scipy():
    # The library has one quadrature routine, in numpy; scipy is a test-only
    # dependency (the QUADPACK reference).
    code = "import sys, ibodies; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_worker_pool_module():
    # The oracle's worker threads use threading, which numpy already loads;
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
    root = bisect(math.cos, bracket(math.cos, 1.0, 2.0))
    assert abs(root - math.pi / 2.0) < 1e-11


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
