"""The field's witness: the negative point that certifies NotPolarZonoid.

``ObstructionField.witness`` is (t, value, kind), read from the rows and
atoms the verdict used: the most negative interior row, else the most
negative joint row (a one-sided limit at a kink of g), else the most
negative atom below the verdict's atom threshold.  It is None exactly when
the verdict is Inconclusive.
"""

import math

import numpy as np
import pytest

from ibodies import (BodyOfRevolution, FamilySpec, instantiate, obstruction_field,
                     profile_from_json)
from ibodies.families import FAMILY_NAMES

KINK = 1.0 / math.sqrt(2.0)
# Midpoints of the parameter ranges the benchmark catalogue draws from.
CATALOGUE_PARAMS = {"lp_revolution": {"p": 4.5}, "octagon_Kb": {"b": 0.65},
                    "cyl_caps_KM": {"M": 2.25}}


def body(name, dim, **params):
    return instantiate(FamilySpec(name=name, params=params, dimension=dim))


def test_cylinder_witness_is_inside_the_outer_piece():
    fld = obstruction_field(body("cylinder", 6))
    t, value, kind = fld.witness
    # A strictly interior point of the outer piece, not the one-sided limit
    # at the kink itself.
    assert kind == "interior"
    assert KINK < t < 1.0
    assert value < -2000.0
    assert fld.verdict == "NotPolarZonoid"


def test_balls_have_no_witness():
    # Unit-ball fields are the positive constants 3 (dim 4) and 30 (dim 6).
    fld4 = obstruction_field(body("ball", 4))
    assert fld4.witness is None
    assert abs(fld4.min_value - 3.0) < 1e-6
    assert fld4.verdict == "Inconclusive"

    fld6 = obstruction_field(body("ball", 6))
    assert fld6.witness is None
    assert abs(fld6.min_value - 30.0) < 1e-2
    assert fld6.verdict == "Inconclusive"


def test_exponential_witness_is_at_the_equator():
    fld = obstruction_field(body("exp_decay", 6))
    t, value, kind = fld.witness
    assert kind == "interior"
    assert t > 0.99
    assert value < -0.4
    assert fld.verdict == "NotPolarZonoid"


def test_witness_on_a_custom_grid():
    fld = obstruction_field(body("cylinder", 6), grid=np.linspace(1e-3, 1.0, 301))
    assert fld.witness[2] == "interior" and fld.witness[1] < -1000.0


@pytest.mark.parametrize("name", FAMILY_NAMES)
@pytest.mark.parametrize("dim", [4, 6])
def test_witness_exists_exactly_when_the_verdict_certifies(name, dim):
    fld = obstruction_field(instantiate(FamilySpec(name, CATALOGUE_PARAMS.get(name, {}), dim)))
    assert (fld.witness is None) == (fld.verdict == "Inconclusive")
    if fld.witness is None:
        return
    t, value, kind = fld.witness
    if kind == "atom":
        assert (t, value) in fld.atoms
    else:
        assert (t, value) in zip(fld.grid, fld.continuous_values)
        assert value < -fld.negativity_tol
        assert t not in [s for s, _ in fld.excluded]
        at_joint = t in [j for j, _, _ in fld.breakpoint_classes]
        assert kind == ("one-sided" if at_joint else "interior")


def _kinked_profile(slope):
    """rho = 1 on [0, 1/2] and 1 + slope (t - 1/2) on [1/2, 1]: g has a kink
    at t = 1/2 with an atom of sign -slope."""
    return profile_from_json({"pieces": [
        {"interval": [0.0, 0.5], "expr": "1"},
        {"interval": [0.5, 1.0], "expr": f"(add 1 (mul {slope} (sub t 0.5)))"}]})


@pytest.mark.parametrize("dim,floor,atom", [(4, 3.0, -0.9), (6, 30.0, -9.0)])
def test_a_negative_atom_alone_certifies(dim, floor, atom):
    fld = obstruction_field(BodyOfRevolution(dimension=dim, profile=_kinked_profile(0.4)))
    # The continuous part stays positive; only the atom at t = 1/2 is negative.
    assert fld.min_value > floor - 1e-6
    assert len(fld.atoms) == 1
    t0, w = fld.atoms[0]
    assert t0 == 0.5 and math.isclose(w, atom, rel_tol=1e-12)
    assert fld.verdict == "NotPolarZonoid"
    assert fld.witness == (t0, w, "atom")


def test_a_positive_atom_certifies_nothing():
    fld = obstruction_field(BodyOfRevolution(dimension=4, profile=_kinked_profile(-0.4)))
    assert fld.min_value > 0.0
    assert len(fld.atoms) == 1
    t0, w = fld.atoms[0]
    assert t0 == 0.5 and math.isclose(w, 0.9, rel_tol=1e-12)
    assert fld.verdict == "Inconclusive" and fld.witness is None
