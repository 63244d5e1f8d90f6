"""asrrkit benchmark: one command, three workloads, end to end or traced.

    python3 bench/run.py --workload {verify,export,cli-mix} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout; the package is taken from
``src/`` there and nowhere else, and the run stops with exit code 2 if it
is missing.  Inputs are generated from the seed (``inputs.py``).  The
loop is closed with one client: each unit starts only after the previous
one has exited, and there is never more than one child process.

``--trace 0`` runs every unit as a child process and reports the
end-to-end metrics:

- ``setup_s``: median wall time for a fresh interpreter to
  ``import asrrkit.cli`` and exit, sampled twice per pass;
- ``setup_rel`` and ``op_p50_rel``: the median setup sample and the median
  unit wall time (spawn to exit), each divided by the matching part
  (start-up or compute) of runs of the fixed reference task
  (``reference.py``) made next to it.  On a shared machine whose speed
  drifts by 10-40% within minutes these ratios hold steadier than the raw
  seconds;
- ``peak_rss_mb``: the largest peak RSS of any child, from ``os.wait4`` on
  that child.

``--trace 1`` runs the same units in this process, alternating untraced
and traced units, with wrappers on the public functions of every module
(``tracer.py``), and reports per-layer metrics plus the tracing overhead
(each traced unit against the untraced run of the same unit next to it).
Counts and seconds are per pass (see ``Workload.units_per_pass``).  Import
costs come from ``python3 -X importtime``.

Every run checks the outputs (``workloads.py``).  The last line of
standard output is the result; the line before it carries the detail:
the environment, the seed, ``fail_ratio``, the raw ``op_p50_s``,
``op_tail_s`` (the highest percentile with ten samples beyond it, with its
sample count; absent with ten samples or fewer), ``ops_per_s``,
per-command medians and, on ``export``, ``rows_per_s`` and the sha256 of
both files.  Both lines, the per-sample times and the spans of a traced
run are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

IMPORT_REPEATS = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
REF_WINDOW = 3  # reference runs on each side of a pass that time its units
CHILD_TIMEOUT_S = 120.0
# recorded as found, never set: BLAS/OpenMP threads and the bytecode cache
ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
            "PYTHONDONTWRITEBYTECODE")
ORACLE_PREFIX = "oracle."


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, log_path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS MB).

    The child is reaped with os.wait4 so its own resource usage is read;
    a watchdog kills it after CHILD_TIMEOUT_S."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def median_child_wall(argv, repeats, log_path) -> float:
    spawn(argv, log_path)  # fills the bytecode and page caches
    walls = []
    for _ in range(repeats):
        wall, code, _ = spawn(argv, log_path)
        if code != 0:
            with open(log_path, errors="replace") as fh:
                raise RuntimeError(f"{' '.join(argv)} exited {code}: {fh.read()[-2000:]}")
        walls.append(wall)
    return statistics.median(walls)


def environment() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
        lapack = deps["lapack"].get("name")
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas, lapack = None, None
    sha, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "asrrkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "lapack": lapack,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "env": {var: os.environ.get(var) for var in ENV_VARS},
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": src_hash.hexdigest(),
    }


def tail(walls: list[float]) -> dict | None:
    """The highest percentile (nearest rank) with TAIL_BEYOND samples above
    it, or None when there are too few samples to have one."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None
    return {"value_s": ordered[n - TAIL_BEYOND - 1],
            "percentile": int(100 * (n - TAIL_BEYOND) / n), "samples": n}


class Run:
    """One invocation: a workload, its seed and the records of its units."""

    def __init__(self, workload, seconds: float, check_names: list[str]):
        self.wl = workload
        self.seconds = seconds
        self.check_names = check_names
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.series: dict[str, list] = {}  # per-sample times, for the result file

    def fresh_out(self):
        shutil.rmtree(self.wl.out, ignore_errors=True)
        os.makedirs(self.wl.out)

    def record_check(self, unit, exit_code, log=None):
        self.attempted += 1
        problems = self.wl.check(unit, exit_code)
        if exit_code != 0 and log is not None:
            with open(log, errors="replace") as fh:
                problems.append(f"{unit.label} output: {fh.read()[-500:]}")
        if problems:
            self.failed += 1
            self.problems += problems[: max(0, 10 - len(self.problems))]

    def untraced(self) -> tuple[dict, dict]:
        log = os.path.join(self.wl.work, "child.log")
        setup_argv = [sys.executable, "-c", "import asrrkit.cli"]
        reference_argv = [sys.executable, os.path.join(BENCH_DIR, "reference.py")]

        def reference() -> dict:
            wall, code, _ = spawn(reference_argv, log)
            with open(log) as fh:
                compute = float(fh.read().split()[-1])
            return {"startup": wall - compute, "compute": compute}

        spawn(setup_argv, log)  # fills the bytecode and page caches
        reference()
        k = self.wl.units_per_pass
        passes = [self.wl.schedule[i:i + k] for i in range(0, len(self.wl.schedule), k)]
        # A reference run brackets every pass.  Each pass opens and closes
        # with a setup sample, divided by the start-up time of the reference
        # next to it.  A unit, longer than one reference, is divided by the
        # median over the REF_WINDOW references on each side of its pass of
        # the workload's yardstick part, which follows the machine's slow
        # drift without the noise of any single reference.
        refs = [reference()]
        setups, setup_rel, walls, rss, labels, bracket = [], [], [], [], [], []
        t0 = time.perf_counter()
        while not walls or time.perf_counter() - t0 < self.seconds:
            units = passes[(len(refs) - 1) % len(passes)]
            setups.append(spawn(setup_argv, log)[0])
            setup_rel.append(setups[-1] / refs[-1]["startup"])
            for unit in units:
                self.fresh_out()
                wall, code, peak = spawn(self.wl.child_argv(unit), log)
                walls.append(wall)
                rss.append(peak)
                labels.append(unit.label)
                bracket.append(len(refs) - 1)
                self.record_check(unit, code, log)
            setups.append(spawn(setup_argv, log)[0])
            refs.append(reference())
            setup_rel.append(setups[-1] / refs[-1]["startup"])
        part = [r[self.wl.yardstick] for r in refs]
        yardstick = [statistics.median(part[max(0, p - REF_WINDOW + 1):p + REF_WINDOW + 1])
                     for p in range(len(refs) - 1)]
        metrics = {
            "setup_s": statistics.median(setups),
            "setup_rel": statistics.median(setup_rel),
            "op_p50_rel": statistics.median(w / yardstick[p] for w, p in zip(walls, bracket)),
            "peak_rss_mb": max(rss),
        }
        detail = {
            "op_p50_s": statistics.median(walls),
            "op_tail_s": tail(walls),
            "ops_per_s": len(walls) / sum(walls),
            "reference_startup_p50_s": statistics.median(r["startup"] for r in refs),
            "reference_compute_p50_s": statistics.median(r["compute"] for r in refs),
            "op_p50_s_by_command": {label: statistics.median(
                [w for w, lab in zip(walls, labels) if lab == label]) for label in set(labels)},
        }
        if self.wl.name == "export":
            detail["rows_per_s"] = 2 * self.wl.spec.n * len(walls) / sum(walls)
            detail["output_sha256"] = self.wl.digests
        self.series = {"reference": refs, "setup_s": setups, "unit_s": walls,
                       "unit_label": labels, "unit_pass": bracket}
        return metrics, detail

    def traced(self) -> tuple[dict, dict]:
        from tracer import Tracer

        layer = import_layer(os.path.join(self.wl.work, "child.log"))
        tracer = Tracer()
        # Warm-up pass: fills lazy caches and measures writer allocations
        # under tracemalloc, which would distort the timed spans.
        tracer.install()
        tracer.measure_alloc = True
        for unit in self.wl.schedule:
            self.fresh_out()
            self.record_check(unit, self.wl.run_in_process(unit))
        tracer.uninstall()
        tracer.measure_alloc = False
        tracer.reset()

        plain, traced = [], []
        # per-check seconds from CheckResult.elapsed; zero on the CLI workloads
        check_s = dict.fromkeys(self.check_names, 0.0)
        checks_failed = 0
        index = 0
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < self.seconds:
            for unit in self.wl.schedule:
                # alternate which side goes first, so drift hits both alike
                for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
                    self.fresh_out()
                    if with_trace:
                        tracer.unit = index
                        tracer.install()
                    start = time.perf_counter()
                    code = self.wl.run_in_process(unit)
                    wall = time.perf_counter() - start
                    if with_trace:
                        tracer.uninstall()
                        traced.append(wall)
                    else:
                        plain.append(wall)
                    self.record_check(unit, code)
                    if with_trace and self.wl.name == "verify":
                        for rec in self.wl.suite_records:
                            check_s[rec["name"]] = check_s.get(rec["name"], 0.0) + rec["elapsed"]
                            checks_failed += not rec["passed"]
                index += 1
        os.makedirs(OUT_ROOT, exist_ok=True)
        tracer.dump(os.path.join(OUT_ROOT, f"spans_{self.wl.name}_seed{self.wl.seed}.json"))

        passes = len(traced) / self.wl.units_per_pass
        inclusive, own = tracer.span_totals()
        counts = tracer.counts

        def per_pass(value):
            return value / passes

        layer.update({
            "config.parse_s": per_pass(inclusive["config.parse"]),
            "config.calls": per_pass(counts["config.parse_config_file.calls"]),
            "cli.self_s": per_pass(own["cli.main"]),
            "cli.calls": per_pass(counts["cli.main.calls"]),
            "resonator.s_parameters_s": per_pass(inclusive["resonator.s_parameters"]),
            "resonator.points": per_pass(counts["resonator.points"]),
            "resonator.scalar_calls": per_pass(counts["resonator.scalar_calls"]),
            "active.q_on_nonlinear_s": per_pass(inclusive["active.q_on_nonlinear"]),
            "active.q_on_nonlinear.calls": per_pass(counts["active.q_on_nonlinear.calls"]),
            "noise.pm_to_am_gain_s": per_pass(inclusive["noise.pm_to_am_gain"]),
            "noise.pm_to_am_gain.calls": per_pass(counts["noise.pm_to_am_gain.calls"]),
            "noise.flicker_phase_noise_s": per_pass(inclusive["noise.flicker_phase_noise"]),
            "noise.flicker_phase_noise.calls": per_pass(counts["noise.flicker_phase_noise.calls"]),
            "design.synthesize_s": per_pass(inclusive["design.synthesize"]),
            "design.synthesize.calls": per_pass(counts["design.synthesize.calls"]),
            "oracle.sweep_two_port_s": per_pass(inclusive["oracle.sweep_two_port"]),
            "oracle.points": per_pass(counts["oracle.points"]),
            "oracle.us_per_point": (1e6 * inclusive["oracle.sweep_two_port"] / counts["oracle.points"]
                                    if counts["oracle.points"] else 0.0),
            "oracle.solve_two_port.calls": per_pass(counts["oracle.solve_two_port.calls"]),
            "oracle.solve_linear.calls": per_pass(counts["oracle.solve_linear.calls"]),
            "oracle.time_avg_gm_s": per_pass(inclusive["oracle.time_avg_gm"]),
            "oracle.quadrature_samples": per_pass(counts["oracle.quadrature_samples"]),
            "oracle.brent.calls": per_pass(counts["oracle.brent.calls"]),
            "validate.run_all_s": per_pass(inclusive["validate.run_all"]),
            "validate.checks_failed": per_pass(checks_failed),
            "sweepio.write_sweep_csv_s": per_pass(inclusive["sweepio.write_sweep_csv"]),
            "sweepio.write_touchstone_s": per_pass(inclusive["sweepio.write_touchstone"]),
            "sweepio.rows": per_pass(counts["sweepio.rows"]),
            "sweepio.bytes": per_pass(counts["sweepio.bytes"]),
            "sweepio.values_formatted": per_pass(counts["sweepio.values_formatted"]),
            "sweepio.peak_alloc_mb": tracer.peak_alloc / 2**20,
            "sweepio.small_files": per_pass(counts["sweepio.small_files"]),
            "sweepio.small_writes_s": per_pass(inclusive["sweepio.small_write"]),
            "trace.op_p50_s": statistics.median(traced),
            "trace.untraced_op_p50_s": statistics.median(plain),
            # each traced unit against the untraced run of the same unit next to it
            "trace.overhead_ratio": statistics.median(t / u for t, u in zip(traced, plain)),
            "trace.spans": per_pass(len(tracer.spans)),
        })
        for name, total in check_s.items():
            layer[f"validate.{name}_s"] = per_pass(total)
        unit_s = sum(traced)
        layer["oracle.share"] = (inclusive["oracle.sweep_two_port"]
                                 + inclusive["oracle.time_avg_gm"]) / unit_s
        layer["sweepio.share"] = (inclusive["sweepio.write_sweep_csv"]
                                  + inclusive["sweepio.write_touchstone"]
                                  + inclusive["sweepio.small_write"]) / unit_s
        if self.wl.name != "verify":
            nonzero = {k: v for k, v in counts.items() if k.startswith(ORACLE_PREFIX) and v}
            if nonzero:
                self.problems.append(f"analytic path called the oracle: {nonzero}")
        return layer, {"traced_units": len(traced)}


def import_layer(log_path) -> dict:
    """Interpreter start and import costs, from fresh child interpreters."""
    python_s = median_child_wall([sys.executable, "-c", "pass"], IMPORT_REPEATS, log_path)
    numpy_s, asrrkit_s = [], []
    argv = [sys.executable, "-X", "importtime", "-c", "import asrrkit.cli"]
    spawn(argv, log_path)
    for _ in range(IMPORT_REPEATS):
        spawn(argv, log_path)
        cumulative = {}
        with open(log_path) as fh:
            for line in fh:
                if line.startswith("import time:") and "|" in line:
                    _, cum, name = line[len("import time:"):].split("|")
                    if cum.strip().isdigit():
                        cumulative[name.strip()] = int(cum) / 1e6
        numpy_s.append(cumulative["numpy"])
        asrrkit_s.append(cumulative["asrrkit"] + cumulative["asrrkit.cli"] - cumulative["numpy"])
    return {"import.python_s": python_s, "import.numpy_s": statistics.median(numpy_s),
            "import.asrrkit_s": statistics.median(asrrkit_s)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "export", "cli-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "asrrkit", "__init__.py")):
        print(f"no asrrkit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import asrrkit
    if os.path.dirname(os.path.dirname(os.path.abspath(asrrkit.__file__))) != SRC:
        print(f"imported asrrkit from {asrrkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import inputs
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        catalog = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        check_names = [m["name"][len("validate."):-len("_s")] for m in catalog
                       if m["name"].startswith("validate.") and m["name"].endswith("_s")
                       and m["name"] != "validate.run_all_s"]
        run = Run(WORKLOADS[args.workload](args.seed, work), args.seconds, check_names)
        metrics, detail = run.traced() if args.trace else run.untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in catalog]
    if sorted(metrics) != sorted(names):
        print(f"metrics {sorted(set(metrics) ^ set(names))} are not both measured and "
              f"declared in BENCHMARK.json", file=sys.stderr)
        return 2
    correct = run.failed == 0 and not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in catalog},
    }
    detail.update({"workload": args.workload, "seed": args.seed,
                   "fail_ratio": run.failed / run.attempted,
                   "held_out_seed": inputs.HELD_OUT_SEED, "trace": args.trace,
                   "seconds": args.seconds, "problems": run.problems,
                   "environment": environment()})
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, f"result_{args.workload}_seed{args.seed}"
                                     f"_trace{args.trace}.json"), "w") as fh:
        json.dump({"detail": detail, "result": result, "series": run.series}, fh)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
