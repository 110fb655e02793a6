#!/usr/bin/env python3
"""Benchmark for ibodies: three workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload field_catalogue --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads (see README.md): field_catalogue, criteria_sweep, cli_cold.  Each
runs in this one process, one operation at a time (a closed loop with one
client); cli_cold starts one `python -m ibodies` child at a time.  A run
repeats whole passes over the seeded operation list, at least three, and stops
at the pass end nearest to --seconds.  Timings are each operation's fastest
run in the run: on a shared machine noise only ever adds time.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every operation
untraced and then traced, recording spans around each layer's public
functions (wrapped from here for the traced call only; the library is
unchanged), and prints the per-layer metrics, the tracing overhead and
whether traced outputs were bit-identical.

Every metric is printed as "name = value unit"; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  A full
record goes to perfbench/results/.
"""

import os

# One BLAS/OpenMP thread here and in every child (children inherit this).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import checks
import inputs
from spans import SpanTable, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")

SETUP_PROBES = 7
STARTUP_PROBES = 5
MIN_PASSES = 3

# Every reported time is scaled to a machine on which reference_loop()
# takes REFERENCE_S at its fastest (see README.md, "Timing").  The loop runs
# before an operation whenever REFERENCE_EVERY_S have passed since the last.
REFERENCE_S = 0.005
REFERENCE_EVERY_S = 0.25

PRIMARY = {"field_catalogue": ("field",), "criteria_sweep": ("check", "check_json"),
           "cli_cold": ("cli",)}
FIELD_LABELS = sorted(op["label"] for op in inputs.field_catalogue(0))

COUNT_SUFFIXES = (".calls", ".evals", ".margin_evals", ".samples")
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("op_ms_p50", "ms"), ("peak_rss_mb", "MB"))


# ------------------------------------------------------------------ set-up

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def setup(workload: str, seed: int, workdir: str) -> list:
    """Import the library and build the workload's inputs."""
    sys.path.insert(0, SRC)
    import ibodies  # noqa: F401  (the import is part of set-up)
    json_path = os.path.join(workdir, "profile.json")
    ops, profile = inputs.build(workload, seed, json_path)
    if profile is not None:
        with open(json_path, "w") as fh:
            json.dump(profile, fh, indent=2)
    return ops


def time_child(cmd: list, env: dict, ready: bool = False) -> float:
    """Wall time of a child from start to exit, or to its first output line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          cwd=ROOT, env=env) as proc:
        if ready:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        else:
            proc.stdout.read()
        code = proc.wait()
    if not ready:
        elapsed = time.perf_counter() - t0
    if code != 0 or (ready and line.strip() != b"ready"):
        raise RuntimeError(f"{cmd!r} exited with {code}")
    return elapsed


def setup_probe(workload: str, seed: int, workdir: str) -> float:
    """Set-up time of a fresh process, from its start to inputs built."""
    probe_dir = tempfile.mkdtemp(dir=workdir)
    return time_child([sys.executable, os.path.abspath(__file__), "--setup-probe",
                       "--workload", workload, "--seed", str(seed),
                       "--workdir", probe_dir], child_env(), ready=True)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "platform": platform.platform(),
            "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                      "OPENBLAS_NUM_THREADS",
                                                      "MKL_NUM_THREADS")}}


def split_importtime(stderr: bytes) -> tuple:
    """(stderr without -X importtime lines, {"import_s", "scipy_s"}).

    import_s is the cumulative time of the outermost ibodies imports;
    scipy_s that of each scipy module not imported by another scipy module.
    """
    rest, rows = [], []   # rows: (depth, module, cumulative us), children first
    for line in stderr.splitlines(keepends=True):
        fields = line.decode(errors="replace").split("|")
        if not line.startswith(b"import time:"):
            rest.append(line)
        elif len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip("\n")
            rows.append(((len(name) - len(name.lstrip())) // 2, name.strip(),
                         int(fields[1])))

    def outermost(prefix):
        total = 0
        for i, (depth, name, cumulative) in enumerate(rows):
            importer = next((r[1] for r in rows[i + 1:] if r[0] < depth), None)
            inside = name == prefix or name.startswith(prefix + ".")
            if inside and not (importer and (importer == prefix
                                             or importer.startswith(prefix + "."))):
                total += cumulative
        return total / 1e6

    return b"".join(rest), {"import_s": outermost("ibodies"), "scipy_s": outermost("scipy")}


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's speed."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(1, 40000):
        x += (i * 0.5) ** 0.5 / (i + 1.0)
    return time.perf_counter() - t0


# -------------------------------------------------------------- operations

class Runner:
    """Runs one operation at a time, checks its output, records its digest."""

    def __init__(self, tracer: Tracer, workdir: str):
        import ibodies.calculus
        import ibodies.families
        import ibodies.oracle
        import ibodies.profile
        import ibodies.transform
        self.calculus = ibodies.calculus
        self.families = ibodies.families
        self.oracle = ibodies.oracle
        self.profile = ibodies.profile
        self.transform = ibodies.transform
        self.tracer = tracer
        self.workdir = workdir
        self.env = child_env()
        self.tolerances = self._tolerances()
        self.references = []
        self._last_reference = -np.inf

    def scale(self) -> float:
        """Factor from this run's seconds to seconds at the reference speed."""
        return REFERENCE_S / min(self.references)

    def _tolerances(self) -> tuple:
        return (getattr(self.calculus, "DEFAULT_REL_TOL", None),
                getattr(self.calculus, "DEFAULT_ABS_TOL", None))

    # Library calls go through module attributes at call time, so that the
    # traced run's wrappers see them.
    def _body(self, op):
        f = self.families
        return f.instantiate(f.FamilySpec(op["family"], op["params"], op["dim"]))

    def _op_field(self, op):
        return self.transform.obstruction_field(self._body(op),
                                                uniform_points=op["points"])

    def _op_check(self, op):
        return self.families.check_for_dimension(self._body(op).profile, op["dim"],
                                                 op["criterion"])

    def _op_check_json(self, op):
        prof = self.profile.profile_from_json(op["profile"])
        return self.families.check_for_dimension(prof, op["dim"], op["criterion"])

    def _op_sweep(self, op):
        f = self.families
        if "lp_threshold" in op:
            return f.lp_threshold(*op["lp_threshold"])
        return f.sweep(f.FamilySpec(op["family"], op["params"], op["dim"]),
                       op["param"], op["grid"], criterion=op["criterion"])

    def _op_oracle(self, op):
        return self.oracle.section_ratio_report(self._body(op), samples=op["samples"],
                                                seed=op["seed"])

    def _op_cli(self, op, importtime: bool = False):
        """`python -m ibodies ARGV`; with importtime, under -X importtime, whose
        lines are parsed and taken out of stderr."""
        out_path = os.path.join(self.workdir, "cli.out")
        err_path = os.path.join(self.workdir, "cli.err")
        flags = ["-X", "importtime"] if importtime else []
        cmd = [sys.executable, *flags, "-m", "ibodies", *op["argv"]]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        imports = None
        if importtime:
            stderr, imports = split_importtime(stderr)
        return {"returncode": proc.returncode, "stdout": stdout, "stderr": stderr,
                "maxrss_kb": usage.ru_maxrss, "imports": imports}

    def _traced(self, op):
        """The operation inside a root span, with the wrappers installed for
        this call only."""
        tracer = self.tracer
        tracer.install()
        tracer.active = True
        try:
            return tracer.call(f"op.{op['kind']}:{op['label']}",
                               getattr(self, f"_op_{op['kind']}"), op)
        finally:
            tracer.active = False
            tracer.uninstall()

    def run(self, op: dict, traced: bool = False) -> dict:
        kind, label = op["kind"], op["label"]
        rec = {"label": label, "kind": kind, "traced": traced, "error": None,
               "problems": []}
        if time.perf_counter() - self._last_reference >= REFERENCE_EVERY_S:
            self.references.append(reference_loop())
            self._last_reference = time.perf_counter()
        t0 = time.perf_counter()
        try:
            if not traced:
                out = getattr(self, f"_op_{kind}")(op)
            elif kind == "cli":
                out = self._op_cli(op, importtime=True)
            else:
                out = self._traced(op)
        except Exception as e:  # a failing operation is counted, not fatal
            rec["seconds"] = time.perf_counter() - t0
            rec["error"] = f"{type(e).__name__}: {e}"
            out = None
        else:
            rec["seconds"] = time.perf_counter() - t0
        self._verify(op, out, rec)
        rec["failed"] = rec["error"] is not None or bool(rec["problems"])
        return rec

    def _verify(self, op: dict, out, rec: dict):
        if self._tolerances() != self.tolerances:
            rec["problems"].append(f"quadrature defaults changed to {self._tolerances()}")
        if rec["error"] is not None:
            name = rec["error"].split(":", 1)[0]
            if name != op.get("expect_error"):
                rec["problems"].append(f"raised {rec['error']}")
            rec["digest"] = name
            return
        kind = op["kind"]
        if kind == "field":
            crit = self.families.check_for_dimension(self._body(op).profile, op["dim"]).verdict
            rec["problems"] += checks.field(op, out, crit)
            rec["rows"] = len(out.grid)
            digest = repr((out.grid, out.continuous_values, out.is_left_limit,
                           out.atoms, out.verdict)).encode()
        elif kind == "check":
            rec["problems"] += checks.check(op, out)
            digest = repr(out.to_dict()).encode()
        elif kind == "check_json":
            rec["problems"] += checks.perturbed(out)
            digest = repr(out.to_dict()).encode()
        elif kind == "sweep":
            rec["problems"] += checks.sweep(op, out)
            digest = repr((out.grid, out.margins, out.verdicts, out.brackets,
                           out.roots)).encode()
        elif kind == "oracle":
            rec["problems"] += checks.oracle(out)
            rec["samples"] = out["samples"] * len(out["angles"])
            digest = json.dumps(out, sort_keys=True).encode()
        else:
            rec["problems"] += checks.cli(op, out["returncode"], out["stdout"])
            rec["maxrss_kb"] = out["maxrss_kb"]
            if out["imports"] is not None:
                rec.update(out["imports"])
            digest = out["stdout"] + b"\0" + out["stderr"]
        rec["digest"] = hashlib.sha256(digest).hexdigest()


# ------------------------------------------------------------------ passes

def run_passes(runner: Runner, ops: list, seconds: float, traced: bool,
               between=None) -> list:
    """Whole passes, at least MIN_PASSES (two when traced), stopping at the
    pass end nearest to ``seconds``.  In a traced run every operation runs
    untraced and then traced, so that both sides of the overhead see the
    same machine.
    ``between(elapsed)``, if given, runs before each pass, outside the timed
    span; ``elapsed`` is the time the passes have taken so far."""
    passes = []
    reference = {}
    elapsed = 0.0
    while True:
        if between is not None:
            between(elapsed)
        lo = len(runner.tracer.start)
        t0 = time.perf_counter()
        records = []
        for op in ops:
            records.append(runner.run(op))
            if traced:
                records.append(runner.run(op, traced=True))
        wall = time.perf_counter() - t0
        elapsed += wall
        # Every repeat, traced or not, must reproduce the first output
        # exactly: CLI commands byte for byte, library calls bit for bit.
        for rec in records:
            first = reference.setdefault(rec["label"], rec["digest"])
            if rec["digest"] != first:
                rec["problems"].append("output differs from the first run")
                rec["failed"] = True
        passes.append({"records": records, "wall_s": wall,
                       "spans": (lo, len(runner.tracer.start))})
        mean_pass = statistics.fmean(p["wall_s"] for p in passes)
        if len(passes) >= (2 if traced else MIN_PASSES) and elapsed + mean_pass / 2 >= seconds:
            return passes


# ----------------------------------------------------------------- metrics

def pct(values: list, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    i = int(pos)
    if i + 1 >= len(xs):
        return xs[-1]
    return xs[i] + (pos - i) * (xs[i + 1] - xs[i])


def fastest(records: list, traced: bool = False, scale: float = 1.0) -> dict:
    """label -> the operation's fastest time among the records, times scale."""
    best = {}
    for r in records:
        if r["traced"] == traced:
            best[r["label"]] = min(r["seconds"], best.get(r["label"], np.inf))
    return {k: v * scale for k, v in best.items()}


def end_to_end(workload: str, ops: list, passes: list, setups: list,
               scale: float) -> tuple:
    """(gated metrics, all reported metrics) from untraced passes; times are
    at the reference speed."""
    recs = [r for p in passes for r in p["records"]]
    best = fastest(recs, scale=scale)
    failed = {r["label"] for r in recs if r["failed"]}
    ok = [op for op in ops if op["label"] not in failed]
    primary = [1000.0 * best[op["label"]] for op in ok if op["kind"] in PRIMARY[workload]]
    if workload == "cli_cold":
        rss_kb = max(r["maxrss_kb"] for r in recs if "maxrss_kb" in r)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m = {
        "setup_s": statistics.median(setups) * scale,
        "pass_s": sum(best.values()),
        "op_ms_p50": statistics.median(primary),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    units = dict(END_TO_END)
    report = {k: (v, units[k]) for k, v in m.items()}
    p90 = pct(primary, 0.9)
    report["op_ms_p90"] = (p90, "ms")
    report["op_samples"] = (len(primary), "count")
    report["passes"] = (len(passes), "count")
    report["pass_wall_s_p50"] = (statistics.median(p["wall_s"] for p in passes), "s")
    report["setup_wall_s"] = (statistics.median(setups), "s")
    report["reference_ms"] = (1000.0 * REFERENCE_S / scale, "ms")
    report["failed_frac"] = (sum(r["failed"] for r in recs) / len(recs), "failed/attempted")
    if workload == "field_catalogue":
        report["field_pass_s"] = (m["pass_s"], "s")
        report["field_s_p50"] = (m["op_ms_p50"] / 1000.0, "s/body")
        report["field_s_p90"] = (p90 / 1000.0, "s/body")
        rows = {r["label"]: r["rows"] for r in recs if "rows" in r}
        report["field_rows_per_s"] = (sum(rows[op["label"]] for op in ok)
                                      / sum(best[op["label"]] for op in ok), "rows/s")
    elif workload == "criteria_sweep":
        report["check_ms_p50"] = (m["op_ms_p50"], "ms/report")
        report["check_ms_p90"] = (p90, "ms/report")
        sweeps = [best[op["label"]] for op in ok if op["kind"] == "sweep"]
        report["sweep_s"] = (statistics.median(sweeps), "s/sweep")
        oracles = [op for op in ok if op["kind"] == "oracle"]
        samples = {r["label"]: r["samples"] for r in recs if "samples" in r}
        report["oracle_samples_per_s"] = (sum(samples[op["label"]] for op in oracles)
                                          / sum(best[op["label"]] for op in oracles),
                                          "samples/s")
    else:
        report["cli_s_p50"] = (m["op_ms_p50"] / 1000.0, "s/invocation")
        report["cli_s_p90"] = (p90 / 1000.0, "s/invocation")
    return m, report


def layers(tracer: Tracer, lo: int, hi: int, records: list, span_cost: float) -> dict:
    """Per-layer metrics of one traced pass."""
    st = SpanTable(tracer, lo, hi, span_cost)
    integ = ("calculus.integrate", "criteria.integrate")
    build = st.total("families.instantiate") + st.total("profile.profile_from_json") - float(
        st.dur[st.mask("families.instantiate") & st.parent_is("profile.profile_from_json")].sum())
    in_sweep = st.parent_in(lambda n: n.startswith("op.sweep:"))
    m = {
        "calculus.integrate.calls": sum(st.calls(n) for n in integ),
        "calculus.integrand.evals": st.calls("calculus.integrand"),
        "calculus.integrate.self_s": sum(st.self_total(n) for n in integ),
        "calculus.integrand_s": st.total("calculus.integrand"),
        "profile.value.calls": st.calls("profile.value"),
        "profile.value_s": st.total("profile.value"),
        "profile.eval_array_s": st.total("profile.eval_array"),
        "profile.build_s": build,
        "transform.h_jet.calls": st.calls("transform.h_jet"),
        "transform.h_jet.self_s": st.self_total("transform.h_jet"),
        "transform.box_operator.calls": st.calls("transform.box_operator"),
        "transform.local_jet_s": st.self_total("transform.box_operator"),
        "transform.obstruction_field.self_s": st.self_total("transform.obstruction_field"),
        "criteria.check_s": st.total("families.check_for_dimension"),
        "criteria.integrate.calls": st.calls("criteria.integrate"),
        "families.instantiate_s": st.total("families.instantiate"),
        "families.sweep.margin_evals": int(np.count_nonzero(
            st.mask("families.check_for_dimension") & in_sweep)),
        "oracle.mc_section_volume_s": st.total("oracle.mc_section_volume"),
        "oracle.samples": sum(r.get("samples", 0) for r in records
                              if r["traced"] and r["kind"] == "oracle"),
    }
    fields = st.mask("transform.obstruction_field")
    for label in FIELD_LABELS:
        m[f"transform.obstruction_field_s.{label}"] = float(
            st.dur[fields & st.parent_is(f"op.field:{label}")].sum())
    return m


def cli_layers(runner: Runner, records: list) -> dict:
    """Start-up layers of the traced `-X importtime` children."""
    interp = min(time_child([sys.executable, "-c", "pass"], runner.env)
                 for _ in range(STARTUP_PROBES))
    traced = [r for r in records if r["traced"] and "import_s" in r]
    main_s = {}
    for r in traced:
        main = r["seconds"] - r["import_s"] - interp
        main_s[r["label"]] = min(main, main_s.get(r["label"], np.inf))
    return {
        "cli.interpreter_s": interp,
        "cli.import_s": min(r["import_s"] for r in traced),
        "cli.import.scipy_s": min(r["scipy_s"] for r in traced),
        "cli.main_s": statistics.median(main_s.values()),
    }


def traced_metrics(workload: str, runner: Runner, passes: list, span_cost: float) -> dict:
    """Per-layer metrics: counts from any traced pass (they repeat exactly),
    times the fastest over the traced passes, at the reference speed."""
    per_pass = [layers(runner.tracer, *p["spans"], p["records"], span_cost) for p in passes]
    m = {k: (statistics.median_low if k.endswith(COUNT_SUFFIXES) else min)(
        [pm[k] for pm in per_pass]) for k in per_pass[0]}
    recs = [r for p in passes for r in p["records"]]
    if workload == "cli_cold":
        m.update(cli_layers(runner, recs))
    else:
        m.update({k: 0.0 for k in ("cli.interpreter_s", "cli.import_s",
                                   "cli.import.scipy_s", "cli.main_s")})
    m = {k: v * runner.scale() if unit_of(k) == "s" else v for k, v in m.items()}
    untraced, traced = fastest(recs), fastest(recs, traced=True)
    m["trace.overhead_pct"] = 100.0 * (sum(traced.values()) / sum(untraced.values()) - 1.0)
    m["trace.span_cost_us"] = 1e6 * span_cost
    return m


# --------------------------------------------------------------------- main

def unit_of(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    return {"trace.overhead_pct": "%", "trace.span_cost_us": "us"}.get(name, "s")


def run_workload(args) -> int:
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    tracer = Tracer()
    try:
        ops = setup(args.workload, args.seed, workdir)
        runner = Runner(tracer, workdir)
        # Set-up probes run between passes, spread evenly over the measured
        # time, so that their median covers the same stretch as the passes.
        setups = []

        def probe(elapsed):
            while len(setups) < min(SETUP_PROBES, SETUP_PROBES * elapsed / args.seconds + 1):
                setups.append(setup_probe(args.workload, args.seed, workdir))
        passes = run_passes(runner, ops, args.seconds, bool(args.trace),
                            None if args.trace else probe)
        while not args.trace and len(setups) < SETUP_PROBES:
            setups.append(setup_probe(args.workload, args.seed, workdir))
        recs = [r for p in passes for r in p["records"]]
        attempted = len(recs)
        failed = sum(r["failed"] for r in recs)
        correct = not any(r["problems"] for r in recs)
        if args.trace:
            metrics = traced_metrics(args.workload, runner, passes, tracer.span_cost())
            units = {k: unit_of(k) for k in metrics}
            reported = {k: (v, units[k]) for k, v in metrics.items()}
        else:
            metrics, reported = end_to_end(args.workload, ops, passes, setups,
                                           runner.scale())
            units = dict(END_TO_END)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(),
            "setup_probes_s": setups, "correct": correct, "attempted": attempted,
            "failed": failed, "passes": len(passes),
            "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
            "operations": [{k: r.get(k) for k in ("label", "kind", "traced", "seconds",
                                                   "error", "problems")}
                           for r in recs],
        }
        os.makedirs(RESULTS, exist_ok=True)
        stem = os.path.join(RESULTS, f"{args.workload}_seed{args.seed}_trace{args.trace}")
        with open(stem + ".json", "w") as fh:
            json.dump(record, fh, indent=1)
        if args.trace:
            tracer.save(stem + "_spans.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for rec in recs:
        for problem in rec["problems"]:
            print(f"CHECK FAILED {rec['label']}: {problem}", file=sys.stderr)
    print(f"workload = {args.workload}; seed = {args.seed}; passes = {len(passes)}; "
          f"attempted = {attempted}; failed = {failed}; correct = {correct}")
    if args.trace:
        same = not any("differs" in p for r in recs for p in r["problems"])
        print(f"traced outputs bit-identical to untraced = {same}")
    for k, (v, u) in reported.items():
        print(f"{k} = {v:.6g} {u}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in metrics}}))
    return 0


def run_all(args) -> int:
    code = 0
    for workload in inputs.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                               workload, "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", str(args.trace)])
        code = code or proc.returncode
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "ibodies", "__init__.py")):
        print(f"error: no ibodies sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args.workload, args.seed, args.workdir)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
