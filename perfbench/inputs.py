"""Seeded input generation for the three benchmark workloads.

Everything here is plain data (family names, parameter dicts, prefix-JSON
profile texts, CLI argument lists), built without calling the library, so
that the library only ever receives generated inputs.  The same seed gives
the same inputs, operation order included.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("field_catalogue", "criteria_sweep", "cli_cold")

SQ2 = math.sqrt(0.5)

# Parameter ranges drawn by the seed.  They avoid the sweep roots (so every
# verdict is fixed across draws) and keep the field cost per body within a
# few per cent across draws, so that run-to-run spread is the machine's and
# not the seed's.
P_RANGE = (4.25, 4.75)     # lp_revolution: smooth at t=1 for p >= 4
B_RANGE = (0.6, 0.7)       # octagon_Kb: below the cor6 root 0.826279
M_RANGE = (1.5, 3.0)       # cyl_caps_KM: above the second prop1 root 1.312909

# Families whose profile has a flat top (rho(1) + rho'(1) = 0), where cor6
# applies.
FLAT_TOP = ("cylinder", "octagon_Kb", "lp_revolution", "exp_decay",
            "three_bodies_L")

# Grid of every catalogue field.  The library's default is 2000 points; at
# 250 a pass of the 11 bodies takes 3-5 s, so a 25 s run repeats each body
# several times and can report its fastest time.
FIELD_POINTS = 250
PERTURBATIONS = 50
ORACLE_SAMPLES = 10 ** 6
ORACLE_SEED = 12345        # fixed: a seeded oracle could fail 3 sigma by chance
CLI_FIELD_POINTS = 200
CLI_ORACLE_SAMPLES = 10 ** 5


def _draw_params(rng: random.Random) -> dict:
    return {
        "lp_revolution": {"p": round(rng.uniform(*P_RANGE), 6)},
        "octagon_Kb": {"b": round(rng.uniform(*B_RANGE), 6)},
        "cyl_caps_KM": {"M": round(rng.uniform(*M_RANGE), 6)},
    }


def _num(x: float) -> str:
    return repr(float(x))


U = "(sub 1 (mul t t))"
L_LEFT = f"(div (add (sub 3 (mul 16 {U})) (mul 28 (mul {U} {U}))) (mul 8 (pow {U} 5/2)))"
L_RIGHT = "(div 1 t)"


def perturbed_L(rng: random.Random) -> dict:
    """Prefix-JSON of rho_L * (1 + eps (2t^2-1)(1-t^2)^2 (w0 + w1 t + w2 t^2)).

    The factor moves mass toward the equator and keeps the flat top exactly
    (double zero at t=1); cor6 keeps firing with margin > 2.
    """
    w0, w1, w2 = rng.random(), rng.random(), rng.random()
    eps = 0.02 * rng.random()
    w = f"(add (add {_num(w0)} (mul {_num(w1)} t)) (mul {_num(w2)} (mul t t)))"
    shape = f"(mul (sub (mul 2 (mul t t)) 1) (mul (pow {U} 2) {w}))"
    factor = f"(add 1 (mul {_num(eps)} {shape}))"
    return {"pieces": [
        {"interval": [0.0, SQ2], "expr": f"(mul {L_LEFT} {factor})"},
        {"interval": [SQ2, 1.0], "expr": f"(mul {L_RIGHT} {factor})"},
    ]}


def field_catalogue(seed: int) -> list:
    """One op per body: obstruction_field at FIELD_POINTS uniform points."""
    rng = random.Random(seed)
    params = _draw_params(rng)
    ops = [
        {"label": "three_bodies_L", "family": "three_bodies_L", "params": {}, "dim": 6},
        {"label": "lp_revolution", "family": "lp_revolution",
         "params": params["lp_revolution"], "dim": 6},
        {"label": "octagon_Kb", "family": "octagon_Kb",
         "params": params["octagon_Kb"], "dim": 6},
        {"label": "cyl_caps", "family": "cyl_caps", "params": {}, "dim": 4},
        {"label": "cyl_caps_KM", "family": "cyl_caps_KM",
         "params": params["cyl_caps_KM"], "dim": 4},
        {"label": "exp_decay_4", "family": "exp_decay", "params": {}, "dim": 4},
        {"label": "exp_decay_6", "family": "exp_decay", "params": {}, "dim": 6},
        {"label": "ball_4", "family": "ball", "params": {}, "dim": 4},
        {"label": "ball_6", "family": "ball", "params": {}, "dim": 6},
        {"label": "cylinder", "family": "cylinder", "params": {}, "dim": 6},
        # The double cone: the row at t=1 has no finite jet, and the whole
        # field raises SmoothnessError.  Kept so that the known defect shows
        # as a failed operation.
        {"label": "octagon_Kb_b0", "family": "octagon_Kb", "params": {"b": 0.0},
         "dim": 6, "expect_error": "SmoothnessError"},
    ]
    for op in ops:
        op["kind"] = "field"
        op["points"] = FIELD_POINTS
    rng.shuffle(ops)
    return ops


def _grid(lo: float, step: float, count: int) -> list:
    return [round(lo + i * step, 10) for i in range(count)]


SWEEPS = (
    {"label": "cyl_caps_KM.M", "family": "cyl_caps_KM", "params": {"M": 1.0},
     "dim": 4, "param": "M", "grid": _grid(1.0, 0.1, 21), "criterion": "auto",
     "roots": [1.019420, 1.312909]},
    {"label": "octagon_Kb.b", "family": "octagon_Kb", "params": {"b": 0.5},
     "dim": 6, "param": "b", "grid": _grid(0.05, 0.05, 20), "criterion": "cor6",
     "roots": [0.826279]},
    {"label": "lp_threshold", "lp_threshold": (9.0, 10.0, 0.1),
     "roots": [9.525038]},
)

ORACLE_BODIES = (("ball", 4), ("cyl_caps", 4), ("three_bodies_L", 6))


def criteria_sweep(seed: int) -> list:
    """Builtin checks, perturbed-L checks, three sweeps, three oracle reports."""
    rng = random.Random(seed)
    params = _draw_params(rng)
    ops = []
    for family in ("ball", "cylinder", "cyl_caps", "cyl_caps_KM", "octagon_Kb",
                   "lp_revolution", "exp_decay", "three_bodies_L"):
        crits = [(4, "prop1"), (6, "prop4")]
        if family in FLAT_TOP:
            crits.append((6, "cor6"))
        for dim, crit in crits:
            ops.append({"kind": "check", "label": f"{family}_{dim}_{crit}",
                        "family": family, "params": params.get(family, {}),
                        "dim": dim, "criterion": crit})
    for i in range(PERTURBATIONS):
        ops.append({"kind": "check_json", "label": f"perturbed_L_{i}",
                    "profile": perturbed_L(rng), "dim": 6, "criterion": "cor6"})
    for spec in SWEEPS:
        ops.append({"kind": "sweep", **spec})
    for family, dim in ORACLE_BODIES:
        ops.append({"kind": "oracle", "label": f"{family}_{dim}", "family": family,
                    "params": {}, "dim": dim, "samples": ORACLE_SAMPLES,
                    "seed": ORACLE_SEED})
    rng.shuffle(ops)
    return ops


def cli_cold(seed: int, json_path: str) -> tuple:
    """Argument lists for `python -m ibodies`, plus the profile-JSON document.

    Returns (ops, profile_json); the caller writes profile_json to json_path.
    """
    rng = random.Random(seed)
    params = _draw_params(rng)
    profile = perturbed_L(rng)
    ops = []
    for family in ("ball", "cylinder", "cyl_caps", "cyl_caps_KM", "octagon_Kb",
                   "lp_revolution", "exp_decay", "three_bodies_L"):
        argv = ["check", "--builtin", family]
        for k, v in params.get(family, {}).items():
            argv += ["--param", f"{k}={v!r}"]
        ops.append({"label": f"check_{family}", "argv": argv, "family": family})
    ops += [
        {"label": "check_json", "argv": ["check", "--profile-json", json_path,
                                         "--dim", "6", "--criterion", "cor6"]},
        {"label": "validate_json", "argv": ["validate", "--profile-json", json_path,
                                            "--dim", "6"]},
        {"label": "sweep_cyl_caps_KM", "argv": ["sweep", "--builtin", "cyl_caps_KM",
                                                "--param", "M", "--range", "1", "3",
                                                "--step", "0.25"],
         "roots": [1.019420, 1.312909]},
        {"label": "field_cylinder", "argv": ["field", "--builtin", "cylinder",
                                             "--grid-points", str(CLI_FIELD_POINTS)]},
        {"label": "oracle_ball", "argv": ["oracle", "--builtin", "ball", "--dim", "4",
                                          "--samples", str(CLI_ORACLE_SAMPLES)]},
    ]
    for op in ops:
        op["kind"] = "cli"
    rng.shuffle(ops)
    return ops, profile


def build(workload: str, seed: int, json_path: str) -> tuple:
    """(ops, profile_json or None) for a workload."""
    if workload == "field_catalogue":
        return field_catalogue(seed), None
    if workload == "criteria_sweep":
        return criteria_sweep(seed), None
    if workload == "cli_cold":
        return cli_cold(seed, json_path)
    raise ValueError(f"unknown workload {workload!r}")
