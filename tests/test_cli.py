"""End-to-end command-line runs: in a subprocess, and in this process where
the question is what a run leaves behind in it."""

import filecmp
import json
import math
import subprocess
import sys

import pytest

from ibodies import calculus, cli, criteria, oracle, transform
from ibodies.families import MAX_GRID_POINTS, FamilySpec, instantiate


def run(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "ibodies", *args],
                          capture_output=True, text=True, **kwargs)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# check


def test_check_cyl_caps_dim4():
    res = run("check", "--builtin", "cyl_caps", "--dim", "4")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["criterion"] == "prop1"
    assert payload["verdict"] == "NotPolarZonoid"
    assert abs(payload["margin"] - 0.125) < 1e-12
    assert payload["body"] == "cyl_caps in R^4"
    assert "verdict = NotPolarZonoid" in res.stderr
    assert "margin = 0.125" in res.stderr


def test_check_ball_dim6_inconclusive():
    res = run("check", "--builtin", "ball", "--dim", "6")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "Inconclusive"
    assert abs(payload["margin"] - (-4.0 / 9.0)) < 1e-10


def test_check_explicit_criterion_and_default_dimension():
    res = run("check", "--builtin", "three_bodies_L", "--criterion", "cor6")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["criterion"] == "cor6"
    assert payload["dimension"] == 6
    assert payload["verdict"] == "NotPolarZonoid"


def test_check_writes_artifact_with_summary_on_stdout(tmp_path):
    out = tmp_path / "report.json"
    res = run("check", "--builtin", "cyl_caps", "--dim", "4",
              "--out", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "NotPolarZonoid"
    assert "margin = 0.125" in res.stdout
    assert res.stderr == ""


def test_check_profile_json_route(tmp_path):
    spec = {"pieces": [{"interval": [0.0, 1.0],
                        "expr": "(div 1 (add 1 (mul t t)))"}]}
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(spec))
    res = run("check", "--profile-json", str(path), "--dim", "4")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["criterion"] == "prop1"
    assert abs(payload["margin"] - 0.125) < 1e-12

    # The JSON route has no family defaults, so the dimension is mandatory.
    res = run("check", "--profile-json", str(path))
    assert res.returncode == 2
    assert "error:" in res.stderr and "--dim" in res.stderr


# Documents that parse as JSON but describe no profile: an interval outside
# [0, 1], NaN or infinite, pieces that do not cover [0, 1], no pieces, and a
# piece that is not positive.
_BAD_PROFILES = {
    "outside": '{"pieces": [{"interval": [0, 2], "expr": "1"}]}',
    "nan": '{"pieces": [{"interval": [0, NaN], "expr": "1"}]}',
    "inf": '{"pieces": [{"interval": [0, 1e999], "expr": "1"}]}',
    "short": '{"pieces": [{"interval": [0, 0.5], "expr": "1"}]}',
    "empty": '{"pieces": []}',
    "negative": '{"pieces": [{"interval": [0, 1], "expr": "(sub t 1)"}]}',
}


@pytest.mark.parametrize("label", sorted(_BAD_PROFILES))
def test_check_reports_a_profile_that_is_no_profile_as_a_format_error(tmp_path, label):
    path = tmp_path / "bad.json"
    path.write_text(_BAD_PROFILES[label])
    res = run("check", "--profile-json", str(path), "--dim", "4")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ProfileFormatError: "), res.stderr


def test_a_small_ball_gets_no_flat_top_certificate():
    # rho(1) + rho'(1) = rho(1) for every ball, so no ball is flat-topped,
    # however small: cor6 must refuse it, not certify it.
    res = run("check", "--builtin", "ball", "--dim", "6", "--criterion", "cor6",
              "--param", "scale=1e-10")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: FlatTopRequired"), res.stderr
    res = run("sweep", "--builtin", "ball", "--dim", "6", "--criterion", "cor6",
              "--param", "scale", "--range", "1e-10", "1", "--step", "0.25")
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout)
    assert len(rows) == 5 and {r[2] for r in rows} == {"error:FlatTopRequired"}
    assert "5 points, 0 satisfied" in res.stderr


@pytest.mark.parametrize("interval", [[False, True], ["0", "1"]])
def test_check_refuses_interval_ends_that_are_not_json_numbers(tmp_path, interval):
    path = tmp_path / "ends.json"
    path.write_text(json.dumps({"pieces": [{"interval": interval, "expr": "1"}]}))
    res = run("check", "--profile-json", str(path), "--dim", "4")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ProfileFormatError")


def test_check_rejects_bad_params():
    res = run("check", "--builtin", "ball", "--dim", "4", "--param", "M=2")
    assert res.returncode == 2
    assert res.stderr.startswith("error: InvalidParam")

    res = run("check", "--builtin", "cyl_caps_KM", "--dim", "4", "--param", "M")
    assert res.returncode == 2
    assert "sweep" in res.stderr

    for family, param in [("lp_revolution", "p=inf"), ("lp_revolution", "p=nan"),
                          ("cyl_caps_KM", "M=inf"), ("ball", "scale=inf"),
                          ("octagon_Kb", "b=-inf")]:
        res = run("check", "--builtin", family, "--param", param)
        assert res.returncode == 2, (param, res.stderr)
        assert res.stderr.startswith("error: InvalidParam"), (param, res.stderr)
        assert "must be finite" in res.stderr
        assert res.stdout == ""


def test_unknown_builtin_is_a_usage_error():
    res = run("check", "--builtin", "pyramid", "--dim", "4")
    assert res.returncode == 2
    assert res.stdout == ""


# ---------------------------------------------------------------------------
# field


def test_field_cylinder_csv_and_summary():
    res = run("field", "--builtin", "cylinder", "--grid-points", "150")
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header == ["t", "continuous_value", "is_left_limit", "is_atom",
                      "atom_weight"]
    atoms = [r for r in rows if r[3] == "1"]
    assert len(atoms) == 1
    assert abs(float(atoms[0][0]) - 1.0 / math.sqrt(2.0)) < 1e-12
    assert atoms[0][1] == ""            # atoms carry no continuous value
    assert abs(float(atoms[0][4]) - 120.0) < 1e-9
    assert "verdict NotPolarZonoid" in res.stderr
    assert "atom(0.70710678, +120)" in res.stderr


def test_field_ball_is_constant_three():
    res = run("field", "--builtin", "ball", "--dim", "4",
              "--grid-points", "50")
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    values = [float(r[1]) for r in rows if r[1] != ""]
    assert values and all(abs(v - 3.0) < 1e-7 for v in values)
    assert "verdict Inconclusive" in res.stderr


def test_field_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        res = run("field", "--builtin", "cylinder", "--grid-points", "120",
                  "--out", str(path))
        assert res.returncode == 0
    assert filecmp.cmp(a, b, shallow=False)


def test_field_rejects_degenerate_grid():
    res = run("field", "--builtin", "ball", "--dim", "4", "--grid-points", "1")
    assert res.returncode == 2
    assert res.stderr.startswith("error: InvalidParam")


def test_field_refuses_a_grid_past_the_sweep_cap(capsys):
    # Refused before any grid is built: a larger value would fill memory.
    argv = ["field", "--builtin", "ball", "--dim", "4",
            "--grid-points", str(MAX_GRID_POINTS + 1)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: InvalidParam: --grid-points must be at most {MAX_GRID_POINTS}\n"


@pytest.mark.parametrize("command", ["check", "field", "oracle", "validate"])
def test_bare_param_names_are_refused_outside_sweep(command, capsys):
    argv = [command, "--builtin", "cyl_caps_KM", "--dim", "4", "--param", "M"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: InvalidParam: bare --param names are only valid with sweep\n"


# ---------------------------------------------------------------------------
# sweep


def test_sweep_finds_both_tangency_roots():
    res = run("sweep", "--builtin", "cyl_caps_KM", "--dim", "4",
              "--param", "M", "--range", "1", "3", "--step", "0.25")
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header == ["param", "margin", "verdict", "is_root"]
    roots = [float(r[0]) for r in rows if r[3] == "1"]
    assert len(roots) == 2
    assert abs(roots[0] - 1.019420196) < 1e-6
    assert abs(roots[1] - 1.312909202) < 1e-6
    grid_rows = [r for r in rows if r[3] == "0"]
    assert len(grid_rows) == 9
    assert "roots:" in res.stderr


def test_sweep_requires_exactly_one_bare_param():
    res = run("sweep", "--builtin", "cyl_caps_KM", "--dim", "4",
              "--range", "1", "3", "--step", "0.5")
    assert res.returncode == 2
    assert "exactly one bare --param" in res.stderr


def test_sweep_requires_a_builtin_family(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(
        {"pieces": [{"interval": [0.0, 1.0], "expr": "1"}]}))
    res = run("sweep", "--profile-json", str(path), "--dim", "4",
              "--param", "M", "--range", "1", "2", "--step", "0.5")
    assert res.returncode == 2
    assert "requires --builtin" in res.stderr


def test_sweep_validates_range_and_step():
    res = run("sweep", "--builtin", "cyl_caps_KM", "--dim", "4", "--param",
              "M", "--range", "3", "1", "--step", "0.5")
    assert res.returncode == 2
    res = run("sweep", "--builtin", "cyl_caps_KM", "--dim", "4", "--param",
              "M", "--range", "1", "3", "--step", "-0.5")
    assert res.returncode == 2
    for lo, hi, step in [("1", "inf", "0.1"), ("1", "2", "nan")]:
        res = run("sweep", "--builtin", "cyl_caps_KM", "--dim", "4", "--param",
                  "M", "--range", lo, hi, "--step", step)
        assert res.returncode == 2, (lo, hi, step, res.stderr)
        assert res.stderr.startswith("error: InvalidParam"), res.stderr


@pytest.mark.parametrize("criterion, dim", [("cor6", "4"), ("prop4", None)])
def test_sweep_refuses_a_criterion_of_another_dimension(criterion, dim, capsys):
    # As check does, before the first point: no CSV rows of errors.
    argv = ["sweep", "--builtin", "cyl_caps_KM", "--param", "M", "--range", "1.0",
            "1.2", "--step", "0.1", "--criterion", criterion] + (["--dim", dim] if dim else [])
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: ValueError: {criterion} applies to dimension 6\n"


@pytest.mark.parametrize("argv", [
    ["check", "--builtin", "ball", "--dim", "5"],
    ["sweep", "--builtin", "cyl_caps_KM", "--param", "M", "--range", "1", "2", "--step", "0.5",
     "--dim", "5"]], ids=["check", "sweep"])
def test_a_dimension_without_a_criterion_is_refused(argv):
    res = run(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == ("error: ValueError: no criterion applies to dimension 5: prop1 needs "
                          "dimension 4, prop4 and cor6 need dimension 6\n")


def test_sweep_refuses_an_oversized_grid():
    res = run("sweep", "--builtin", "cyl_caps_KM", "--param", "M",
              "--range", "1", "2", "--step", "1e-12")
    assert res.returncode == 2
    assert res.stderr.startswith("error: InvalidParam"), res.stderr
    assert res.stdout == ""


# ---------------------------------------------------------------------------
# oracle


def test_oracle_ball_agrees_and_exits_zero():
    res = run("oracle", "--builtin", "ball", "--dim", "4",
              "--samples", "20000")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["all_within_3sigma"] is True
    assert payload["samples"] == 20000
    assert "oracle ok" in res.stderr


@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("name", ["ball", "cylinder", "cyl_caps", "exp_decay",
                                  "three_bodies_L"])
def test_oracle_agrees_for_the_builtins(name, dim, capsys):
    assert cli.main(["oracle", "--builtin", name, "--dim", str(dim),
                     "--samples", "20000"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("oracle ok: 0 of 2 ratio(s) outside 3 sigma, 20000 samples"), err


def test_oracle_summary_counts_the_mismatches(monkeypatch, capsys):
    def report(body, samples, seed, settings):
        return {"comparisons": [{"within_3sigma": ok} for ok in (True, False, False)],
                "all_within_3sigma": False}

    monkeypatch.setattr(cli, "section_ratio_report", report)
    assert cli.main(["oracle", "--builtin", "ball", "--samples", "20000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("oracle MISMATCH: 2 of 3 ratio(s) outside 3 sigma"), err


def test_oracle_refuses_sample_counts_above_the_maximum():
    res = run("oracle", "--builtin", "ball", "--dim", "4",
              "--samples", str(oracle.MAX_SAMPLES + 1))
    assert res.returncode == 2
    assert res.stderr.startswith("error: DomainError"), res.stderr
    assert res.stdout == ""


def test_oracle_rejects_tiny_sample_counts():
    res = run("oracle", "--builtin", "ball", "--dim", "4", "--samples", "100")
    assert res.returncode == 2
    assert res.stderr.startswith("error: InsufficientSamples")


def test_oracle_bounding_ball_overflow_is_an_input_error():
    res = run("oracle", "--builtin", "ball", "--samples", "10000",
              "--param", "scale=1e300")
    assert res.returncode == 2
    assert res.stderr.startswith("error: DomainError"), res.stderr
    assert res.stdout == ""


def test_oracle_section_without_hits_is_an_input_error(tmp_path):
    # A valid convex profile so tall near the axis that the sections at pi/4
    # and pi/6 get no hit in their bounding balls: no ratio can be formed.
    path = tmp_path / "spike.json"
    path.write_text(json.dumps({"pieces": [
        {"interval": [0, 1], "expr": "(add 1 (mul 1000 (pow t 40)))"}]}))
    res = run("oracle", "--profile-json", str(path), "--dim", "6")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == ("error: InsufficientSamples: no sample of 100000 hit the "
                          f"section at phi = {math.pi / 4}; draw more samples\n"), res.stderr


def test_oracle_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        res = run("oracle", "--builtin", "cyl_caps", "--dim", "4",
                  "--samples", "20000", "--seed", "7", "--out", str(path))
        assert res.returncode == 0
    assert filecmp.cmp(a, b, shallow=False)


# ---------------------------------------------------------------------------
# validate


def test_validate_octagon_reports_kinks_and_convexity():
    res = run("validate", "--builtin", "octagon_Kb", "--param", "b=0.5")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["dimension"] == 6
    assert payload["convexity"]["convex"] is True
    joints = payload["breakpoints"]
    assert [j["class"] for j in joints] == ["C0", "C0"]
    locs = [j["location"] for j in joints]
    assert abs(locs[0] - 0.4472135954999579) < 1e-12
    assert abs(locs[1] - 0.8944271909999159) < 1e-12
    assert "valid profile" in res.stderr and "convex: yes" in res.stderr


def test_validate_profile_json_round_trip(tmp_path):
    spec = {"pieces": [{"interval": [0.0, 1.0],
                        "expr": "(div 1 (add 1 (mul t t)))"}]}
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(spec))
    res = run("validate", "--profile-json", str(path), "--dim", "4")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["breakpoints"] == []
    assert payload["profile"]["pieces"][0]["interval"] == [0.0, 1.0]


def test_validate_takes_no_tolerances():
    # validate integrates nothing, so a tolerance flag is a usage error.
    res = run("validate", "--builtin", "ball", "--tol-rel", "1e-3")
    assert res.returncode == 2, res.stderr
    assert "unrecognized arguments" in res.stderr


def test_validate_reports_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    res = run("validate", "--profile-json", str(path), "--dim", "4")
    assert res.returncode == 2
    assert res.stderr.startswith("error:")


# ---------------------------------------------------------------------------
# top level


def test_missing_subcommand_is_a_usage_error():
    res = run()
    assert res.returncode == 2


def test_source_arguments_are_mutually_exclusive(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(
        {"pieces": [{"interval": [0.0, 1.0], "expr": "1"}]}))
    res = run("check", "--builtin", "ball", "--profile-json", str(path),
              "--dim", "4")
    assert res.returncode == 2


def test_tolerance_flags_are_accepted():
    res = run("check", "--builtin", "cyl_caps", "--dim", "4", "--tol-rel", "1e-9")
    assert res.returncode == 0
    assert json.loads(res.stdout)["verdict"] == "NotPolarZonoid"


def test_bad_tolerances_are_input_errors():
    # 1e-15 lies below the quadrature's error floor of 50 eps.
    for value in ("-1", "0", "nan", "inf", "1e-15"):
        res = run("check", "--builtin", "ball", "--tol-rel", value)
        assert res.returncode == 2, (value, res.stderr)
        assert res.stderr.startswith("error: ValueError: relative tolerance"), value
        assert res.stdout == ""


@pytest.mark.parametrize("command", ["check", "field", "sweep", "oracle", "validate"])
def test_there_is_no_absolute_tolerance_flag(command):
    # Every tolerance is relative, so a dilated body gets the dilated answer.
    extra = ["--param", "scale", "--range", "1", "2", "--step", "1"] if command == "sweep" else []
    res = run(command, "--builtin", "ball", *extra, "--tol-abs", "1e-9")
    assert res.returncode == 2, res.stderr
    assert "unrecognized arguments: --tol-abs 1e-9" in res.stderr
    assert res.stdout == ""


def _cyl_caps_KM_diagnostics():
    body = instantiate(FamilySpec("cyl_caps_KM", {"M": 1.2}, 4))
    return transform.obstruction_field(body, uniform_points=250).diagnostics


def test_tolerance_flags_leave_no_process_state(capsys):
    before = _cyl_caps_KM_diagnostics()
    assert cli.main(["check", "--builtin", "ball", "--tol-rel", "1e-3"]) == 0
    capsys.readouterr()
    assert _cyl_caps_KM_diagnostics() == before
    assert calculus.DEFAULT_REL_TOL == 1e-10


_TOLERANCE_ARGV = {
    "check": ["check", "--builtin", "cyl_caps_KM", "--param", "M=1.2"],
    "field": ["field", "--builtin", "cyl_caps_KM", "--param", "M=1.2",
              "--grid-points", "50"],
    "sweep": ["sweep", "--builtin", "cyl_caps_KM", "--param", "M",
              "--range", "1.1", "1.2", "--step", "0.05"],
    "oracle": ["oracle", "--builtin", "cyl_caps", "--samples", "10000"],
}


@pytest.mark.parametrize("command", sorted(_TOLERANCE_ARGV))
def test_tolerance_flags_reach_the_quadrature(command, monkeypatch, capsys):
    # Every quadrature pass goes through calculus.integrate, which criteria
    # and transform import by name; spy on both names.
    seen = []
    for module in (criteria, transform):
        def spy(request, _original=module.integrate):
            seen.append(request.settings)
            return _original(request)
        monkeypatch.setattr(module, "integrate", spy)
    argv = _TOLERANCE_ARGV[command]
    assert cli.main(argv + ["--tol-rel", "1e-7"]) == 0
    assert seen and set(seen) == {calculus.Settings(1e-7)}
    seen.clear()
    assert cli.main(argv) == 0
    assert seen and set(seen) == {calculus.DEFAULT_SETTINGS}
    capsys.readouterr()


def test_misshapen_profile_json_is_an_input_error(tmp_path):
    path = tmp_path / "p.json"
    for obj in ({"builtin": "ball", "params": 5},
                {"builtin": "ball", "params": {"scale": [1]}},
                {"builtin": "ball", "params": None},
                {"pieces": 5},
                {"pieces": [{"interval": [0.0, 1.0], "expr": 5}]},
                {"pieces": [{"interval": [None, 1.0], "expr": "1"}]},
                {"pieces": [{"interval": ["a", 1.0], "expr": "1"}]}):
        path.write_text(json.dumps(obj))
        res = run("validate", "--profile-json", str(path), "--dim", "4")
        assert res.returncode == 2, (obj, res.stderr)
        assert res.stderr.startswith("error: ProfileFormatError"), obj
        if "pieces" in obj and isinstance(obj["pieces"], list):
            assert f"bad piece entry {obj['pieces'][0]!r}" in res.stderr, res.stderr


def test_an_octagon_piece_narrower_than_the_joint_tolerance_is_refused():
    # Near b = 1 the diagonal piece, and near b = 0 the side piece, shrinks
    # below JOINT_TOL: its two ends would be one joint, counted twice.
    for command, b, interval in (("field", "0.9999999999999",
                                  "[0.7071067811865122, 0.7071067811865829]"),
                                 ("validate", "1e-13", "[0.0, 1e-13]")):
        res = run(command, "--builtin", "octagon_Kb", "--param", f"b={b}")
        assert res.returncode == 2, res.stderr
        assert res.stderr == (f"error: ValueError: piece interval {interval} must "
                              "lie inside [0, 1] and be wider than 1e-12\n"), res.stderr
        assert res.stdout == ""


def test_profile_json_errors_name_the_bad_token(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"pieces": [{"interval": [0.0, 1.0],
                                            "expr": "(add 1 (mul 1e400 t))"}]}))
    res = run("check", "--profile-json", str(path), "--dim", "4")
    assert res.returncode == 2
    assert res.stderr.startswith("error: ProfileFormatError: bad piece entry")
    assert res.stderr.rstrip().endswith(": bad number '1e400'"), res.stderr
    assert res.stdout == ""


def test_a_criterion_that_overflows_is_an_input_error():
    # rho(1)^4 overflows a float at scale 1e80; exit code 1 is the oracle's.
    res = run("check", "--builtin", "cyl_caps", "--dim", "4", "--param", "scale=1e80")
    assert res.returncode == 2
    assert res.stderr.startswith("error: OverflowError"), res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["check", "field"])
def test_an_integrand_that_overflows_is_one_error_line(command, tmp_path, capsys):
    # rho >= 1e300, so rho^3 overflows in both moment passes: no numpy
    # warning and no numpy repr reach the user, only the library's refusal.
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"pieces": [
        {"interval": [0, 1], "expr": "(div 1e300 (pow (sub t 1/4) 2))"}]}))
    assert cli.main([command, "--profile-json", str(path), "--dim", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    head, _, t = err.rstrip("\n").partition("t=")
    assert head == "error: NoConvergence: integrand is not finite at ", err
    assert 0.0 < float(t) < 1.0  # a plain float, no numpy repr


def test_sweep_refuses_a_zero_step_and_a_reversed_range():
    for rng, step in [(("1", "3"), "0"), (("3", "1"), "0.5")]:
        res = run("sweep", "--builtin", "cyl_caps_KM", "--dim", "4", "--param",
                  "M", "--range", *rng, "--step", step)
        assert res.returncode == 2, (rng, step, res.stderr)
        assert res.stderr.startswith("error: InvalidParam"), res.stderr
        assert res.stdout == ""
