"""fastsignal benchmark: times one workload and checks every run's outputs.

usage: python3 perfbench/run.py --workload {rate_study,simulate_eps,ode_sweep}
           --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the package is imported from its ``src/``.
Each operation runs in a fresh interpreter (one caller, closed loop, BLAS and
OpenMP pinned to one thread) because the solver caches are process-global and
a CLI user always starts cold.  Outputs go to a temporary
FASTSIGNAL_OUTPUT_ROOT under ``.perfbench_tmp/`` and are removed afterwards.

--trace 0 alternates a set-up probe with a timed operation until S seconds
have passed and reports the end-to-end metrics.  --trace 1 times untraced
operations for S seconds, then one operation with timing wrappers at every
layer boundary, then the kernel table, and reports the per-layer metrics.

The CPU of a shared host runs up to 1.7x slower for seconds to minutes at a
time while a sibling hardware thread is busy with load the benchmark does
not control.  So the parent and its children are pinned to one CPU, and
while each child runs a sampler thread in the parent times a small probe on
that CPU every 50 ms.  Each child's times are divided by the probe's mean
slowdown against its nominal CPU time: the reported seconds are seconds at
the nominal CPU speed.  The raw medians and the slowdown are printed too.

The last line of standard output is the JSON result; the lines before it
give the environment, the configuration and every metric with its unit and
sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
TMP_DIR = ROOT / ".perfbench_tmp"
CHILD_TIMEOUT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PROBE_PERIOD_S = 0.05
# CPU time of probe() on an uncontended core of the 2-core Xeon box the
# baseline figures come from (numpy 2.4.6); the unit of corrected seconds
PROBE_NOMINAL_S = 0.30e-3
_PROBE_ARRAY = np.linspace(0.0, 1.0, 256)


def probe() -> float:
    """CPU time of 150 small-array numpy updates, the stepper's kind of work.

    Thread CPU time leaves out the time the probe waits while the child
    runs, but still grows when a busy sibling hardware thread slows the core.
    Of the probes tried (a pure-interpreter loop, this one, and one streaming
    a 512 KB array), this one tracked the operations' wall time best.
    """
    t0 = time.thread_time()
    a = _PROBE_ARRAY
    for _ in range(150):
        a = a * 0.999 + 0.001
    return time.thread_time() - t0


class SpeedSampler:
    """Samples the CPU's speed while a child runs on the same CPU.

    A thread wakes every PROBE_PERIOD_S and times probe(); the child loses
    about 1% of the CPU to it.  slowdown() is the mean probe time over the
    nominal one.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append(probe())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowdown(self) -> float:
        return statistics.mean(self.samples or [probe()]) / PROBE_NOMINAL_S


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}

    def timed(name, *stats):
        for stat in stats:
            units[f"{name}.{stat}"] = {"calls": "count", "self_s": "s", "us_per_call": "us"}[stat]

    all_stats = ("calls", "self_s", "us_per_call")
    timed("sim_eps.step", *all_stats)
    timed("sim_eps.heun_species", "self_s")
    timed("sim_eps.advance_chemicals", "self_s")
    timed("sim_eps.stable_dt", *all_stats)
    units["sim_eps.dt_mean"] = "s"
    units["sim_eps.run_steps_per_s"] = "1/s"
    timed("sim_eps.run_eps", "self_s")
    timed("sim_limit.run_limit", "self_s")
    timed("grid.laplacian", *all_stats)
    timed("grid.chemotaxis_div", *all_stats)
    timed("model.kinetics", *all_stats)
    timed("linsolve.tridiagonal", *all_stats)
    timed("linsolve.exp_ramp", *all_stats)
    units["linsolve.exp_factors.hit_ratio"] = "ratio"
    timed("linsolve.helmholtz_solve", "calls")
    timed("analysis.rate_study", "self_s")
    timed("analysis.compare_trajectories", "calls", "self_s")
    timed("analysis.make_layer_data", "self_s")
    timed("ode.integrate", "calls", "self_s")
    units["ode.dp54.attempts"] = "count"
    units["ode.dp54.accept_ratio"] = "ratio"
    units["ode.dp54.us_per_attempt"] = "us"
    units["ode.rhs.calls"] = "count"
    timed("ode.find_equilibria", "calls", "self_s")
    timed("ode.newton", "calls")
    units["ode.newton.converged_ratio"] = "ratio"
    timed("ode.classify_stability", "self_s")
    timed("ode.detect_oscillation", "self_s")
    timed("cli.write_snapshots", "self_s")
    units["cli.output_bytes"] = "bytes"
    units["cli.output_files"] = "count"
    timed("cli.parse_config", "self_s")
    units["trace.overhead_s"] = "s"
    for name in ("laplacian", "chemotaxis_div", "kinetics", "banded_cholesky",
                 "exp_ramp", "stable_dt", "step_eps", "step_limit"):
        for n in (32, 256, 2048):
            units[f"kernel.{name}.n{n}_us"] = "us"
    units["kernel.dp54.n2_us"] = "us"
    return units


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = []
    for pkg in ("numpy", "scipy"):
        try:
            versions.append(f"{pkg}={metadata.version(pkg)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{pkg}=missing")
    return " ".join([
        f"python={sys.version.split()[0]}", *versions,
        f"nproc={os.cpu_count()}", f"pinned_cpu={sorted(os.sched_getaffinity(0))}",
        f"cpu={cpu!r}",
        *(f"{var}=1" for var in THREAD_VARS),
    ])


class Runner:
    """Spawns the child interpreter runs of one benchmark run and checks them."""

    def __init__(self, workload: str, seed: int, smoke: bool, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.argvs = workloads.operation(workload, seed, smoke)
        self.tmp = tmp
        self.env = _child_env()
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, mode: str, spec: dict, workdir: Path) -> dict:
        """One child interpreter; returns exit code, wall time, max RSS and stdout."""
        env = dict(self.env, FASTSIGNAL_OUTPUT_ROOT=str(workdir / "out"))
        cmd = [sys.executable, str(CHILD), mode, json.dumps(spec)]
        with open(workdir / "stdout", "w") as out, open(workdir / "stderr", "w") as err:
            with SpeedSampler() as speed:
                start = time.monotonic()
                proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
                timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    timer.cancel()
                    if proc.returncode is None and proc.poll() is None:
                        proc.kill()
                        proc.wait()
                wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = (workdir / "stderr").read_text().strip()
        return {"code": proc.returncode, "start": start, "wall_s": wall,
                "slowdown": speed.slowdown(),
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": (workdir / "stdout").read_text(),
                "stderr_tail": stderr.splitlines()[-1] if stderr else ""}

    def run(self, mode: str, spec: dict | None = None) -> dict:
        """Spawn one child, check it, and record a failure if it has one."""
        workdir = Path(tempfile.mkdtemp(dir=self.tmp))
        try:
            res = self.spawn(mode, spec or {"argvs": self.argvs}, workdir)
            res["wall_cs"] = res["wall_s"] / res["slowdown"]
            problems = []
            if res["code"] != 0:
                problems.append(f"{mode} exited {res['code']}: {res['stderr_tail']}")
            elif mode in ("run", "trace"):
                problems = self._check_outputs(workdir / "out", res["stdout"])
                files = [f for f in (workdir / "out").rglob("*") if f.is_file()]
                res["output_files"] = len(files)
                res["output_bytes"] = sum(f.stat().st_size for f in files)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))
        res["ok"] = not problems
        return res

    def _check_outputs(self, outdir: Path, stdout: str) -> list[str]:
        try:
            summary = check.summarize(self.workload, outdir, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"outputs unreadable: {exc!r}"]
        problems = check.invariants(self.workload, summary)
        if self.seed == workloads.REFERENCE_SEED and not self.smoke:
            ref = check.load_reference(self.workload)
            if ref["argvs"] != self.argvs:
                problems.append("reference was recorded for other CLI arguments")
            else:
                problems += check.compare(self.workload, summary, ref["summary"])
        return problems

    def setup_sample(self) -> tuple[float, float] | None:
        """Raw and corrected seconds from spawn to the first step, or None."""
        res = self.run("setup")
        if not res["ok"]:
            return None
        raw = json.loads(res["stdout"].splitlines()[-1])["first_step_monotonic"] - res["start"]
        return raw, raw / res["slowdown"]


def _median_line(name: str, values: list[float], unit: str) -> str:
    n = len(values)
    # highest percentile with at least ten samples beyond it (the median below 20)
    pct = max(50, int(100 * (1 - 10 / n))) if n else 50
    high = statistics.quantiles(values, n=100, method="inclusive")[pct - 1] if n > 1 else (
        values[0] if values else float("nan"))
    med = statistics.median(values) if values else float("nan")
    return f"metric {name} median={med:.6g} {unit} p{pct}={high:.6g} {unit} samples={n}"


def measure_end_to_end(r: Runner, seconds: float) -> dict:
    r.setup_sample()  # untimed warm-up: bytecode and file caches, not counted
    r.attempted, r.failures = 0, []
    wall, setup, rss, raw_wall, raw_setup, slowdown = [], [], [], [], [], []
    deadline = time.monotonic() + seconds
    while True:
        t = r.setup_sample()
        if t is not None:
            raw_setup.append(t[0])
            setup.append(t[1])
        res = r.run("run")
        if res["ok"]:
            raw_wall.append(res["wall_s"])
            wall.append(res["wall_cs"])
            rss.append(res["rss_mb"])
            slowdown.append(res["slowdown"])
        if time.monotonic() >= deadline:
            break
    samples = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}
    for name, values in samples.items():
        print(_median_line(name, values, END_TO_END_UNITS[name]))
    print(_median_line("raw_wall_s", raw_wall, "s"))
    print(_median_line("raw_setup_s", raw_setup, "s"))
    print(_median_line("cpu_slowdown", slowdown, "x"))
    return {name: statistics.median(v) for name, v in samples.items() if v}


def _stat(stats: dict, name: str, index: int) -> float:
    return stats.get(name, [0, 0.0, 0.0])[index]


def measure_per_layer(r: Runner, seconds: float) -> dict:
    untraced = []
    deadline = time.monotonic() + seconds
    while True:
        res = r.run("run")
        if res["ok"]:
            untraced.append(res["wall_cs"])
        if time.monotonic() >= deadline:
            break
    traced = r.run("trace")
    kernels = r.run("kernels", {"batch_s": 0.001 if r.smoke else 0.01})
    if not (traced["ok"] and kernels["ok"] and untraced):
        return {}
    trace = json.loads(traced["stdout"].splitlines()[-1])
    stats, counts = trace["stats"], trace["counts"]
    slow = traced["slowdown"]  # times below are corrected like the end-to-end ones

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in list(stats):
        calls, total, self_s = stats[name]
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s / slow
        m[f"{name}.us_per_call"] = ratio(total, calls) * 1e6 / slow
    steps = _stat(stats, "sim_eps.step", 0)
    m["sim_eps.dt_mean"] = ratio(counts["dt_sum"], steps)
    m["sim_eps.run_steps_per_s"] = ratio(steps, _stat(stats, "sim_eps.integrate", 1)) * slow
    m["linsolve.exp_factors.hit_ratio"] = ratio(
        _stat(stats, "linsolve.exp_factors", 0) - _stat(stats, "linsolve.ramp_weight", 0),
        _stat(stats, "linsolve.exp_factors", 0))
    attempts = counts["dp54_attempts"]
    m["ode.dp54.attempts"] = attempts
    m["ode.dp54.accept_ratio"] = ratio(counts["dp54_accepted"], attempts)
    m["ode.dp54.us_per_attempt"] = ratio(_stat(stats, "ode.integrate", 1), attempts) * 1e6 / slow
    m["ode.rhs.calls"] = _stat(stats, "ode.rhs_pp", 0) + _stat(stats, "ode.rhs_3pop", 0)
    m["ode.newton.converged_ratio"] = ratio(counts["newton_converged"],
                                            _stat(stats, "ode.newton", 0))
    m["cli.output_bytes"] = traced["output_bytes"]
    m["cli.output_files"] = traced["output_files"]
    m["trace.overhead_s"] = traced["wall_cs"] - statistics.median(untraced)
    m.update({name: us / kernels["slowdown"]
              for name, us in json.loads(kernels["stdout"].splitlines()[-1]).items()})
    print(_median_line("untraced_wall_s", untraced, "s"))
    print(f"metric traced_wall_s value={traced['wall_cs']:.6g} s samples=1")
    print(f"metric cpu_slowdown traced={slow:.4g} x kernels={kernels['slowdown']:.4g} x")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fastsignal" / "cli.py").is_file():
        print(f"perfbench: no fastsignal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # one CPU for the parent and every child, so the speed probe runs where
    # the children run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_DIR))
    try:
        r = Runner(args.workload, args.seed, args.smoke, tmp)
        print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} smoke={int(args.smoke)} loop=closed callers=1 workers=1")
        print(f"perfbench: env {_environment()}")
        for argv_ in r.argvs:
            print(f"perfbench: op fastsignal {shlex.join(argv_)}")
        if args.trace:
            values = measure_per_layer(r, args.seconds)
            units = per_layer_units()
        else:
            values = measure_end_to_end(r, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = len(r.failures)
    for problem in r.failures[:5]:
        print(f"perfbench: FAILED {problem}")
    print(f"perfbench: ops_failed={failed}/{r.attempted} "
          f"({failed / max(r.attempted, 1):.3f} of runs)")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    correct = failed == 0 and len(metrics) == len(units)
    if args.trace:
        for name, entry in metrics.items():
            print(f"metric {name} value={entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": r.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
