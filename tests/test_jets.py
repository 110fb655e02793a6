"""Truncated Taylor-jet arithmetic against hand-differentiated closed forms,
and array jets against float jets."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibodies.errors import DomainError, SmoothnessError
from ibodies.jets import Jet
from ibodies.profile import add, const, div, exp_of, mul, powr, sqrt, sub, var_t
from helpers import compose, truncated


def test_variable_and_constant_jets():
    t = Jet.variable(0.3, 2)
    assert t.derivs() == (0.3, 1.0, 0.0)
    c = Jet.constant(7.5, 3)
    assert c.derivs() == (7.5, 0.0, 0.0, 0.0)


def test_product_rule_t2_exp():
    # f(t) = t^2 e^t: f' = (t^2 + 2t) e^t, f'' = (t^2 + 4t + 2) e^t
    t0 = 0.3
    t = Jet.variable(t0, 2)
    jet = (t * t) * t.exp()
    e = math.exp(t0)
    assert abs(jet.deriv(0) - t0 ** 2 * e) < 1e-14
    assert abs(jet.deriv(1) - (t0 ** 2 + 2 * t0) * e) < 1e-13
    assert abs(jet.deriv(2) - (t0 ** 2 + 4 * t0 + 2) * e) < 1e-13


def test_quotient_rule_against_closed_form():
    # f(t) = 1/(1+t^2): f' = -2t/(1+t^2)^2, f'' = (6t^2-2)/(1+t^2)^3
    t0 = 0.5
    t = Jet.variable(t0, 2)
    jet = 1.0 / (1.0 + t * t)
    u = 1.0 + t0 ** 2
    assert abs(jet.deriv(0) - 1.0 / u) < 1e-15
    assert abs(jet.deriv(1) - (-2.0 * t0) / u ** 2) < 1e-14
    assert abs(jet.deriv(2) - (6.0 * t0 ** 2 - 2.0) / u ** 3) < 1e-14


def test_fractional_power_jet():
    # f(t) = (1-t^2)^(3/2) at t=0.6
    t0 = 0.6
    t = Jet.variable(t0, 2)
    jet = (1.0 - t * t) ** Fraction(3, 2)
    u = 1.0 - t0 ** 2
    f0 = u ** 1.5
    f1 = -3.0 * t0 * math.sqrt(u)
    f2 = -3.0 * math.sqrt(u) + 3.0 * t0 ** 2 / math.sqrt(u)
    assert abs(jet.deriv(0) - f0) < 1e-14
    assert abs(jet.deriv(1) - f1) < 1e-14
    assert abs(jet.deriv(2) - f2) < 1e-13


def test_zero_base_power_rules():
    # t^(5/2) at t=0 is C^2 with zero jet; t^(1/2) has no finite derivative.
    zero = Jet.variable(0.0, 2)
    jet = zero ** Fraction(5, 2)
    assert jet.derivs() == (0.0, 0.0, 0.0)
    with pytest.raises(SmoothnessError):
        zero ** Fraction(1, 2)
    # Integer powers at zero are polynomial jets.
    cube = Jet.variable(0.0, 3) ** 3
    assert cube.derivs() == (0.0, 0.0, 0.0, 6.0)


def test_sqrt_matches_fraction_half_power():
    t = Jet.variable(0.8, 3)
    expr = 2.0 + t * t
    a = expr.sqrt()
    b = expr ** Fraction(1, 2)
    for k in range(4):
        assert abs(a.deriv(k) - b.deriv(k)) < 1e-13


def test_exp_jet():
    # f(t) = e^(-t): all derivatives alternate sign.
    t0 = 0.45
    jet = (-Jet.variable(t0, 3)).exp()
    e = math.exp(-t0)
    signs = (1.0, -1.0, 1.0, -1.0)
    for k in range(4):
        assert abs(jet.deriv(k) - signs[k] * e) < 1e-14


def test_derivative_shifts_the_jet():
    t = Jet.variable(0.2, 3)
    jet = (t * t * t) + 2.0 * t
    d = jet.derivative()
    # d/dt (t^3 + 2t) = 3t^2 + 2
    assert d.order == 2
    assert abs(d.deriv(0) - (3 * 0.2 ** 2 + 2)) < 1e-14
    assert abs(d.deriv(1) - 6 * 0.2) < 1e-14
    assert abs(d.deriv(2) - 6.0) < 1e-14


def test_compose_matches_direct_evaluation():
    # f(u) = 1/u with u(t) = 1 + t^2 must equal the direct jet of 1/(1+t^2).
    t0 = 0.5
    inner = 1.0 + Jet.variable(t0, 2) * Jet.variable(t0, 2)
    outer = 1.0 / Jet.variable(inner.value, 2)
    composed = compose(outer, inner)
    direct = 1.0 / (1.0 + Jet.variable(t0, 2) * Jet.variable(t0, 2))
    for k in range(3):
        assert abs(composed.deriv(k) - direct.deriv(k)) < 1e-13


def test_division_by_vanishing_jet_raises():
    num = Jet.constant(1.0, 2)
    den = Jet.variable(0.0, 2)
    with pytest.raises(SmoothnessError):
        num / den


def test_truncation_and_alignment():
    a = Jet.variable(0.7, 3)
    b = Jet.variable(0.7, 1)
    c = a + b  # alignment truncates to the shorter jet
    assert c.order == 1
    assert truncated(a, 1).derivs() == (0.7, 1.0)


# ------------------------------------------------------------- array jets

def test_array_jet_checks_act_elementwise():
    t = np.array([0.25, 0.5, 0.75])
    # One vanishing divisor refuses the whole array, as it refuses its point.
    with pytest.raises(SmoothnessError):
        1.0 / (Jet.variable(t, 2) - 0.5)
    # A fractional power above the order vanishes where its base does,
    # without dividing by it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jet = (Jet.variable(t, 2) - 0.25) ** Fraction(7, 2)
    alone = (Jet.variable(t[1:], 2) - 0.25) ** Fraction(7, 2)
    for k in range(3):
        assert jet.coeffs[k][0] == 0.0
        assert np.array_equal(jet.coeffs[k][1:], alone.coeffs[k])
    with pytest.raises(SmoothnessError):
        (Jet.variable(t, 2) - 0.25) ** Fraction(3, 2)
    with pytest.raises(DomainError):
        (Jet.variable(t, 2) - 0.3) ** Fraction(7, 2)
    # A finite argument whose exp overflows raises, as a float and in an array.
    with pytest.raises(OverflowError):
        Jet.variable(800.0, 1).exp()
    with pytest.raises(OverflowError):
        Jet.variable(np.array([1.0, 800.0]), 1).exp()
    assert not Jet((np.array([1.0, np.inf]), 0.0)).is_finite()
    assert Jet((np.array([1.0, 2.0]), 0.0)).is_finite()


_CONSTS = st.sampled_from([-2.0, -0.5, 0.5, 1.0, 1.5, 3.0])
_EXPONENTS = st.sampled_from([Fraction(1, 3), Fraction(-1, 2), Fraction(3, 2),
                              Fraction(2), Fraction(-3), Fraction(9, 2)])
_BINARY = st.sampled_from([add, sub, mul, div])


def _extend(children):
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b), _BINARY, children, children),
        st.builds(powr, children, _EXPONENTS),
        children.map(sqrt),
        children.map(exp_of),
    )


_TREES = st.recursive(st.one_of(_CONSTS.map(const), st.just(var_t())), _extend,
                      max_leaves=8)
# Points include the zeros of t - 0.5, t - 1 and t so that the refusing
# branches are taken.
_POINTS = st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.05, 1.0)),
                   min_size=1, max_size=6)


def _outcome(fn):
    try:
        return fn()
    except (ArithmeticError, ValueError) as e:
        return type(e)


def _coeffs(jet, size):
    return [np.broadcast_to(c, (size,)) for c in jet.coeffs]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tree=_TREES, points=_POINTS, order=st.integers(0, 4))
def test_array_jet_matches_float_jets_point_by_point(tree, points, order):
    arr = np.array(points)
    with np.errstate(all="ignore"):
        whole = _outcome(lambda: tree.eval_jet(arr, order))
        single = [_outcome(lambda: tree.eval_jet(arr[i:i + 1], order))
                  for i in range(arr.size)]
    floats = [_outcome(lambda: tree.eval_jet(p, order)) for p in points]

    # The float jet and the one-point array jet raise the same class or agree
    # bit for bit.
    for f, s in zip(floats, single):
        if isinstance(f, type):
            assert s is f
            continue
        assert isinstance(s, Jet) and s.order == f.order
        for c_float, c_array in zip(f.coeffs, _coeffs(s, 1)):
            assert np.array_equal(c_array, [c_float], equal_nan=True), (c_array, c_float)

    # N points in one array give the bits of N one-point arrays, and raise
    # when any of them does, with one of their classes.
    failed = {s for s in single if isinstance(s, type)}
    if failed:
        assert whole in failed
    else:
        assert isinstance(whole, Jet)
        for i, s in enumerate(single):
            for c_all, c_one in zip(_coeffs(whole, arr.size), _coeffs(s, 1)):
                assert np.array_equal(c_all[i:i + 1], c_one, equal_nan=True)
