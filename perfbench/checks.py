"""Output checks: goldens and consistency rules for every benchmark operation.

Each check returns a list of problems (empty when the output is right).
Closed forms are written out here rather than taken from the library, so a
change to the library cannot change what it is checked against.
"""

from __future__ import annotations

import csv
import io
import json
import math

NPZ = "NotPolarZonoid"
INCONCLUSIVE = "Inconclusive"
ROOT_TOL = 1e-6

# (family, dimension, criterion) whose verdict is Inconclusive; every other
# check in the criteria workload fires.
_INCONCLUSIVE = {("ball", 4, "prop1"), ("ball", 6, "prop4"),
                 ("cylinder", 6, "prop4"), ("cylinder", 6, "cor6")}
_CLI_DIM = {"ball": 4, "cylinder": 6, "cyl_caps": 4, "cyl_caps_KM": 4,
            "octagon_Kb": 6, "lp_revolution": 6, "exp_decay": 4,
            "three_bodies_L": 6}


def expected_verdict(family: str, dim: int, criterion: str) -> str:
    return INCONCLUSIVE if (family, dim, criterion) in _INCONCLUSIVE else NPZ


def _close(got: float, want: float, tol: float, rel: bool = False) -> bool:
    scale = abs(want) if rel else 1.0
    return math.isfinite(got) and abs(got - want) <= tol * scale


def w_of_M_closed(M: float) -> float:
    s = math.sqrt(M * M - 1.0)
    int_rho3 = 1.0 + M ** 3 + 0.75 * M * M * (1.0 - s) - (1.0 + s) ** 3 / 4.0
    flat = (1.0 - s + M) ** 2 / M
    return 2.0 * (1.0 + M - s) ** 4 - 3.0 * int_rho3 * flat


def _roots(got: list, want: list) -> list:
    if len(got) != len(want):
        return [f"roots {got!r}, want {want!r}"]
    return [f"root {g!r}, want {w!r}" for g, w in zip(got, want)
            if not _close(g, w, ROOT_TOL)]


# ------------------------------------------------------------------ field

def value_at_one(grid, values, is_left) -> float:
    for t, v, left in zip(grid, values, is_left):
        if t == 1.0 and not left:
            return v
    return math.nan


def field(op: dict, fld, criterion_verdict: str) -> list:
    problems = []
    label = op["label"]
    at_one = value_at_one(fld.grid, fld.continuous_values, fld.is_left_limit)
    if label == "ball_4":
        bad = [v for v in fld.continuous_values if not abs(v - 3.0) <= 1e-9]
        if bad or fld.atoms:
            problems.append(f"ball_4 field values {bad[:3]!r} are not 3, atoms {fld.atoms!r}")
    if label == "cylinder":
        ok = (len(fld.atoms) == 1 and _close(fld.atoms[0][0], math.sqrt(0.5), 1e-12)
              and _close(fld.atoms[0][1], 120.0, 1e-6))
        if not ok:
            problems.append(f"cylinder atoms {fld.atoms!r}, want 120 at 1/sqrt(2)")
        if not _close(at_one, 1024.0 / 135.0, 1e-8):
            problems.append(f"cylinder field at t=1 is {at_one!r}, want 1024/135")
    if criterion_verdict == NPZ:
        if fld.verdict != NPZ or not at_one < 0.0:
            problems.append(f"criterion fires but field verdict {fld.verdict}, "
                            f"value at t=1 {at_one!r}")
    return problems


# --------------------------------------------------------------- criteria

def check(op: dict, rep) -> list:
    problems = []
    fam, dim, crit = op["family"], op["dim"], op["criterion"]
    want = expected_verdict(fam, dim, crit)
    if rep.verdict != want:
        problems.append(f"verdict {rep.verdict}, want {want}")
    inter = rep.intermediates
    if fam == "ball" and crit == "prop1" and not _close(rep.margin, -1.0, 1e-12):
        problems.append(f"ball prop1 margin {rep.margin!r}, want -1")
    if fam == "cyl_caps_KM" and crit == "prop1":
        want_w = w_of_M_closed(op["params"]["M"])
        if not _close(rep.margin, want_w, 1e-8, rel=True):
            problems.append(f"w(M) {rep.margin!r}, closed form {want_w!r}")
    if fam == "octagon_Kb" and crit == "cor6":
        b = op["params"]["b"]
        h1 = (1.0 + 5.0 * b - b ** 5) / 4.0
        k1 = (1.0 + 5.0 * b + 10.0 * b * b - 5.0 * b ** 4 - b ** 5) / 12.0
        if not (_close(inter["h(1)"], h1, 1e-10) and _close(inter["k(1)"], k1, 1e-10)):
            problems.append(f"octagon moments {inter['h(1)']!r}, {inter['k(1)']!r}")
    if fam == "exp_decay" and crit == "cor6":
        e5 = math.exp(-5.0)
        if not (_close(inter["h(1)"], (23.0 + 12.0 * e5) / 125.0, 1e-10, rel=True)
                and _close(inter["k(1)"], (2.0 - 37.0 * e5) / 125.0, 1e-10, rel=True)):
            problems.append(f"exp_decay moments {inter['h(1)']!r}, {inter['k(1)']!r}")
    return problems


def perturbed(rep) -> list:
    if rep.verdict != NPZ or not rep.margin > 2.0:
        return [f"perturbed L: verdict {rep.verdict}, margin {rep.margin!r}"]
    return []


def sweep(op: dict, result) -> list:
    return _roots(list(result.roots), op["roots"])


def oracle(report: dict) -> list:
    return [] if report["all_within_3sigma"] else ["oracle ratio outside 3 sigma"]


# -------------------------------------------------------------------- CLI

def _csv_rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def cli(op: dict, returncode: int, stdout: bytes) -> list:
    if returncode != 0:
        return [f"exit code {returncode}"]
    text = stdout.decode()
    label = op["label"]
    if label.startswith("check_") and "family" in op:
        fam = op["family"]
        dim = _CLI_DIM[fam]
        crit = "prop1" if dim == 4 else "prop4"
        verdict = json.loads(text)["verdict"]
        want = expected_verdict(fam, dim, crit)
        return [] if verdict == want else [f"verdict {verdict}, want {want}"]
    if label == "check_json":
        payload = json.loads(text)
        return [] if payload["verdict"] == NPZ and payload["margin"] > 2.0 else [
            f"perturbed L: verdict {payload['verdict']}, margin {payload['margin']!r}"]
    if label == "validate_json":
        payload = json.loads(text)
        locs = [b["location"] for b in payload["breakpoints"]]
        return [] if locs == [math.sqrt(0.5)] else [f"breakpoints {locs!r}"]
    if label.startswith("sweep_"):
        roots = [float(r["param"]) for r in _csv_rows(text) if r["is_root"] == "1"]
        return _roots(roots, op["roots"])
    if label == "field_cylinder":
        rows = _csv_rows(text)
        atoms = [(float(r["t"]), float(r["atom_weight"])) for r in rows if r["is_atom"] == "1"]
        cont = [r for r in rows if r["is_atom"] == "0"]
        at_one = value_at_one([float(r["t"]) for r in cont],
                              [float(r["continuous_value"]) for r in cont],
                              [r["is_left_limit"] == "1" for r in cont])
        problems = []
        if not (len(atoms) == 1 and _close(atoms[0][0], math.sqrt(0.5), 1e-12)
                and _close(atoms[0][1], 120.0, 1e-6)):
            problems.append(f"cylinder atoms {atoms!r}")
        if not _close(at_one, 1024.0 / 135.0, 1e-8):
            problems.append(f"cylinder field at t=1 is {at_one!r}")
        return problems
    if label.startswith("oracle_"):
        return oracle(json.loads(text))
    return [f"no check for {label}"]
