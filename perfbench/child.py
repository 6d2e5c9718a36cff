"""The part of the benchmark that runs inside a fresh interpreter.

usage: python3 child.py MODE SPEC_JSON

MODE is one of
  run     -- run the operation's CLI argument lists through fastsignal.cli.main;
  setup   -- the same, but stop at the first time step or first sweep value
             and print the CLOCK_MONOTONIC time reached there;
  trace   -- run the operation with timing wrappers substituted for the
             module-level functions at each layer boundary; print the stats;
  kernels -- time each kernel in isolation at n = 32 / 256 / 2048.

The package is imported from ``src/`` of the checkout that holds this file.
Only ``setup`` and ``trace`` replace functions; ``run`` touches nothing.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def run_op(argvs) -> int:
    from fastsignal.cli import main

    for argv in argvs:
        code = main(argv)
        if code != 0:
            return code
    return 0


class _FirstStep(Exception):
    """Raised at the first time step or sweep value of a set-up probe."""


def setup_probe(argvs) -> dict:
    from fastsignal import ode, sim_eps

    def stop(*args, **kwargs):
        raise _FirstStep(time.monotonic())

    sim_eps._Stepper.step = stop
    ode.find_equilibria = stop
    try:
        code = run_op(argvs)
    except _FirstStep as reached:
        return {"first_step_monotonic": reached.args[0]}
    return {"error": f"operation ended (exit {code}) before its first step"}


# metric prefix -> (module, attribute path) of the function to wrap
TRACE_TARGETS = {
    "sim_eps.step": ("fastsignal.sim_eps", "_Stepper.step"),
    "sim_eps.heun_species": ("fastsignal.sim_eps", "_heun_species"),
    "sim_eps.advance_chemicals": ("fastsignal.sim_eps", "_EpsStepper.advance_chemicals"),
    "sim_eps.stable_dt": ("fastsignal.sim_eps", "_stable_dt_values"),
    "sim_eps.integrate": ("fastsignal.sim_eps", "_integrate"),
    "sim_eps.run_eps": ("fastsignal.sim_eps", "run_eps"),
    "sim_limit.run_limit": ("fastsignal.sim_limit", "run_limit"),
    "grid.laplacian": ("fastsignal.grid", "_laplacian"),
    "grid.chemotaxis_div": ("fastsignal.grid", "_chemotaxis_div"),
    "model.kinetics": ("fastsignal.model", "kinetics"),
    "linsolve.tridiagonal": ("fastsignal.linsolve", "_solve_tridiagonal_values"),
    "linsolve.exp_ramp": ("fastsignal.linsolve", "_exp_ramp_values"),
    "linsolve.exp_factors": ("fastsignal.linsolve", "_exp_factors"),
    "linsolve.ramp_weight": ("fastsignal.linsolve", "_ramp_weight"),
    "linsolve.helmholtz_solve": ("fastsignal.linsolve", "helmholtz_solve"),
    "analysis.rate_study": ("fastsignal.analysis", "rate_study"),
    "analysis.compare_trajectories": ("fastsignal.analysis", "compare_trajectories"),
    "analysis.make_layer_data": ("fastsignal.analysis", "make_layer_data"),
    "ode.integrate": ("fastsignal.ode", "integrate"),
    "ode.rhs_pp": ("fastsignal.ode", "ode_rhs_pp"),
    "ode.rhs_3pop": ("fastsignal.ode", "ode_rhs_3pop"),
    "ode.find_equilibria": ("fastsignal.ode", "find_equilibria"),
    "ode.newton": ("fastsignal.ode", "_newton"),
    "ode.classify_stability": ("fastsignal.ode", "classify_stability"),
    "ode.detect_oscillation": ("fastsignal.ode", "detect_oscillation"),
    "cli.write_snapshots": ("fastsignal.cli", "_write_snapshots"),
    "cli.parse_config": ("fastsignal.cli", "parse_config"),
}


class Tracer:
    """Per-function call counts, inclusive time and self time.

    Self time is a call's duration minus the time spent in wrapped callees.
    Only aggregates are kept, so memory does not grow with the step count.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts = {"dt_sum": 0.0, "dp54_accepted": 0, "dp54_attempts": 0,
                       "newton_converged": 0}
        self._stack: list[float] = []

    def install(self) -> None:
        import importlib

        observers = {
            "sim_eps.step": self._observe_step,
            "ode.integrate": self._observe_integrate,
            "ode.newton": self._observe_newton,
        }
        for name, (module_name, path) in TRACE_TARGETS.items():
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, attr, self._wrap(name, getattr(owner, attr),
                                                observers.get(name)))
            else:
                self._substitute(getattr(module, attr),
                                 self._wrap(name, getattr(module, attr), observers.get(name)))

    @staticmethod
    def _substitute(original, wrapper) -> None:
        # callers import these names directly, so replace every module binding
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "fastsignal":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def _wrap(self, name, fn, observe):
        stat = self.stats[name] = [0, 0.0, 0.0]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observe_step(self, args, kwargs, result) -> None:
        self.counts["dt_sum"] += kwargs["dt"] if "dt" in kwargs else args[4]

    def _observe_integrate(self, args, kwargs, result) -> None:
        self.counts["dp54_accepted"] += result.n_steps
        self.counts["dp54_attempts"] += result.n_steps + result.n_rejected

    def _observe_newton(self, args, kwargs, result) -> None:
        self.counts["newton_converged"] += result is not None


def traced_op(argvs) -> dict:
    tracer = Tracer()
    tracer.install()
    code = run_op(argvs)
    return {"exit_code": code, "stats": tracer.stats, "counts": tracer.counts}


KERNEL_SIZES = (32, 256, 2048)


def _us_per_call(fn, batch_s: float, batches: int = 7) -> float:
    """Median over batches of the time per call; a batch lasts >= batch_s."""
    fn()
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= batch_s:
            break
        calls = max(calls * 2, int(calls * 1.2 * batch_s / max(elapsed, 1e-9)))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples) * 1e6


def kernel_table(batch_s: float) -> dict:
    """Isolated microseconds per call of each kernel, named kernel.<name>.n<size>_us."""
    from fastsignal import grid as grid_mod, linsolve, model, ode, sim_eps, sim_limit

    p = model.default_params()
    eps = 1e-3
    table = {}
    for n in KERNEL_SIZES:
        grid = grid_mod.make_grid(1.0, n)
        dx = grid.dx
        u = tuple(f.values for f in sim_eps.default_initial_fields(grid))
        eps_stepper = sim_eps._EpsStepper(grid, p, eps)
        limit_stepper = sim_limit._LimitStepper(grid, p)
        v = tuple(limit_stepper.solve_elliptic(u[i], i) for i in range(3))
        dt = sim_eps._stable_dt_values(u, v, p, dx, 0.9)
        source = p.zeta3 * u[2]
        kernels = {
            "laplacian": lambda: grid_mod._laplacian(u[0], dx),
            "chemotaxis_div": lambda: grid_mod._chemotaxis_div(u[0], v[2], p.chi1, dx),
            "kinetics": lambda: model.kinetics(u[0], u[1], u[2], p),
            "banded_cholesky": lambda: linsolve._solve_tridiagonal_values(
                p.lambda3, p.mu3, grid, source),
            "exp_ramp": lambda: linsolve._exp_ramp_values(
                p.lambda3, p.mu3, eps, dt, v[2], source, source, grid),
            "stable_dt": lambda: sim_eps._stable_dt_values(u, v, p, dx, 0.9),
            "step_eps": lambda: eps_stepper.step(0.0, u, v, dt),
            "step_limit": lambda: limit_stepper.step(0.0, u, v, dt),
        }
        for name, fn in kernels.items():
            table[f"kernel.{name}.n{n}_us"] = _us_per_call(fn, batch_s)

    pv = p.with_updates(eta1=0.2, eta2=0.2, m1=0.8)
    y0 = [1.0, 0.5]

    def dp54_run():
        traj = ode.integrate(lambda y: ode.ode_rhs_pp(y, pv), y0, 5.0)
        return traj.n_steps + traj.n_rejected

    attempts = dp54_run()
    table["kernel.dp54.n2_us"] = _us_per_call(dp54_run, batch_s) / attempts
    return table


def main(argv) -> int:
    mode, spec = argv[0], json.loads(argv[1])
    if mode == "run":
        return run_op(spec["argvs"])
    if mode == "setup":
        result = setup_probe(spec["argvs"])
    elif mode == "trace":
        result = traced_op(spec["argvs"])
    elif mode == "kernels":
        result = kernel_table(spec["batch_s"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0 if "error" not in result and result.get("exit_code", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
