"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import run  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402

run.setup("criteria_sweep", 0, BENCH)   # puts the library on sys.path

import ibodies.criteria  # noqa: E402
import ibodies.families  # noqa: E402
import ibodies.oracle  # noqa: E402
import ibodies.profile  # noqa: E402
import ibodies.transform  # noqa: E402

WRAPPED = [
    (ibodies.transform, "integrate"), (ibodies.criteria, "integrate"),
    (ibodies.transform, "h_jet"), (ibodies.transform, "box_operator"),
    (ibodies.transform, "obstruction_field"),
    (ibodies.profile.RadialProfile, "value"), (ibodies.profile.RadialProfile, "eval_array"),
    (ibodies.profile, "profile_from_json"), (ibodies.families, "check_for_dimension"),
    (ibodies.families, "instantiate"), (ibodies.oracle, "mc_section_volume"),
]

COUNTS = ("calculus.integrate.calls", "calculus.integrand.evals",
          "profile.value.calls", "transform.h_jet.calls",
          "transform.box_operator.calls", "criteria.integrate.calls",
          "families.sweep.margin_evals", "oracle.samples")


def sample_ops(seed: int = 3) -> list:
    """A cheap cross-section: fields, checks, a sweep, an oracle report and a
    CLI command."""
    field = [op for op in inputs.field_catalogue(seed)
             if op["label"] in ("cyl_caps", "cylinder", "octagon_Kb_b0")]
    crit = inputs.criteria_sweep(seed)
    pick = ([op for op in crit if op["kind"] == "check"][:4]
            + [op for op in crit if op["kind"] == "check_json"][:3]
            + [op for op in crit if op["kind"] == "sweep"
               and op["label"] == "cyl_caps_KM.M"]
            + [op for op in crit if op["kind"] == "oracle"][:1])
    cli = [op for op in inputs.cli_cold(seed, "unused.json")[0] if op["label"] == "check_ball"]
    return field + pick + cli


def traced_pass(runner, ops):
    tracer = runner.tracer
    lo = len(tracer.start)
    records = [runner.run(op, traced=True) for op in ops]
    return records, run.layers(tracer, lo, len(tracer.start), records, 0.0)


def test_uninstall_restores_every_original(tmp_path):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in WRAPPED]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not orig for owner, attr, orig in originals)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in originals)
    traced_pass(run.Runner(tracer, str(tmp_path)), sample_ops()[:2])
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in originals)


def test_traced_outputs_are_bit_identical_and_counts_repeat(tmp_path):
    ops = sample_ops()
    tracer = Tracer()
    runner = run.Runner(tracer, str(tmp_path))
    plain = [runner.run(op) for op in ops]
    first, layers_1 = traced_pass(runner, ops)
    second, layers_2 = traced_pass(runner, ops)
    for a, b, c in zip(plain, first, second):
        assert a["digest"] == b["digest"] == c["digest"], a["label"]
        assert not a["problems"] and not b["problems"], (a["problems"], b["problems"])
    assert [r["failed"] for r in plain] == [r["label"] == "octagon_Kb_b0" for r in plain]
    for name in COUNTS:
        assert layers_1[name] == layers_2[name], name
    assert layers_1["calculus.integrand.evals"] > 0
    assert layers_1["families.sweep.margin_evals"] > 0
    assert layers_1["oracle.samples"] == 3 * inputs.ORACLE_SAMPLES


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic(workload):
    a = inputs.build(workload, 11, "p.json")
    b = inputs.build(workload, 11, "p.json")
    c = inputs.build(workload, 12, "p.json")
    assert a == b
    assert a != c


def test_span_table_nets_out_bookkeeping():
    tracer = Tracer()
    # op [0, 10] > a [1, 6] > b [2, 3] and c [4, 5]; op > d [7, 9]
    for name, parent, start, end in (("op", -1, 0, 10), ("a", 0, 1, 6), ("b", 1, 2, 3),
                                     ("c", 1, 4, 5), ("d", 0, 7, 9)):
        tracer.name_id.append(tracer._id(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    st = SpanTable(tracer, span_cost=0.25)
    assert st.total("op") == 10 - 4 * 0.25
    assert st.total("a") == 5 - 2 * 0.25
    assert st.self_total("op") == 10 - 5 - 2 - 2 * 0.25
    assert st.self_total("a") == 5 - 1 - 1 - 2 * 0.25
    assert st.self_total("b") == 1
    assert 0.0 <= tracer.span_cost() < 1e-4
    assert len(tracer.start) == 5


def test_importtime_lines_are_parsed_and_removed():
    stderr = (b"import time: self [us] | cumulative | imported package\n"
              b"import time:       100 |        100 |     scipy._lib\n"
              b"import time:       200 |        300 |   scipy\n"
              b"import time:        50 |        350 | ibodies\n"
              b"import time:        20 |         20 | scipy.special\n"
              b"warning: kept\n")
    rest, imports = run.split_importtime(stderr)
    assert rest == b"warning: kept\n"
    assert imports == {"import_s": 350e-6, "scipy_s": 320e-6}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
