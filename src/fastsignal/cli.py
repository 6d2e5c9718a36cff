"""Command-line entry point, flat key=value configuration, and file emission.

Subcommands: simulate-eps, simulate-limit, rate-study, manifold-distance,
ode-simulate, ode-bifurcation, verify.  Exit codes: 0 success, 1 validation
error (kind=validation), a run out of memory (kind=memory) or a failed write
of the output files (kind=io), 2 numerical failure, 3 verification-gate
failure.  An outdir that cannot be a directory, or arrays or files projected
past the ceilings below, are validation errors before the run starts.  Every
output directory receives a config echo sufficient to re-run the experiment,
and every CSV this module formats comes from one %-template (``_table``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .analysis import (
    ERROR_FLOOR,
    STUDY_CFL,
    RateReport,
    fit_slope,
    make_layer_data,
    manifold_distance_study,
    norm_l2,
    rate_study,
    semigroup_identity_residual,
)
from .grid import Field, make_grid, mode_vector
from .linsolve import HelmholtzOperator, SolverConvergenceError, helmholtz_solve
from .model import ModelParams, default_params
from .ode import (MODELS, StiffnessError, bifurcation_sweep, detect_oscillation, integrate,
                  model_rhs)
from .sim_eps import (
    _COMPONENTS,
    BlowUpError,
    StabilityError,
    default_initial_fields,
    run_batch,
    run_eps,
    run_limit,
)

__all__ = ["RunConfig", "ConfigError", "parse_config", "main", "entry"]

OUTPUT_ROOT_ENV = "FASTSIGNAL_OUTPUT_ROOT"

_PARAM_KEYS = [f.name for f in fields(ModelParams)]


def _float_list(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _gamma(raw: str):
    return raw if raw == "on_manifold" else float(raw)


# key -> (parse, default); parse is a callable on the raw string or a tuple of
# the allowed choices
_DEFAULT_PARAMS = default_params()
_REGISTRY: dict[str, tuple[object, object]] = {
    **{k: (float, getattr(_DEFAULT_PARAMS, k)) for k in _PARAM_KEYS},
    "L": (float, 1.0),
    "n": (int, 256),
    "T": (float, None),
    "cfl": (float, 0.9),
    "output_count": (int, 64),
    "eps": (float, 1e-3),
    "eps_list": (_float_list, (1e-2, 1e-3, 1e-4, 1e-5)),
    "gamma": (_gamma, "on_manifold"),
    "chemical_mode": (("mixed", "fully_parabolic"), "mixed"),
    "seed": (int, 0),
    "outdir": (str, "out"),
    "ode_model": (tuple(MODELS), "3pop"),
    "sweep_param": (str, "m1"),
    "sweep_min": (float, 0.05),
    "sweep_max": (float, 1.5),
    "sweep_count": (int, 200),
}

# default horizon T per subcommand; verify integrates to its own horizons
_SUBCOMMAND_T = {
    "simulate-eps": 500.0,
    "simulate-limit": 500.0,
    "rate-study": 2.0,
    "manifold-distance": 2.0,
    "ode-simulate": 2000.0,
    "ode-bifurcation": 2000.0,
}


class ConfigError(ValueError):
    """Configuration file or flag rejected; message carries key and location."""


# Ceilings on what a command projects from the keys that size it (output_count,
# sweep_count, n), checked before it allocates any array: the bytes of its
# arrays, the bytes of its files, and the number of its files.  A CSV value
# takes at most 25 bytes, "%.17g" and its separator.  Of the default runs,
# ode-bifurcation's 200-value 3pop sweep projects the most bytes (22 MB of
# arrays, 9.7 MB of files) and simulate-eps the most files (66).
_MAX_PROJECTED_BYTES = 2**31
_MAX_OUTPUT_FILES = 10_000
_CSV_VALUE_BYTES = 25


def _check_projection(keys: str, nbytes: int, files: int, values: int) -> None:
    # nbytes of arrays; files files that hold values CSV values
    for what, size in (("arrays", nbytes), ("files", values * _CSV_VALUE_BYTES)):
        if size > _MAX_PROJECTED_BYTES:
            raise ConfigError(f"{keys}: {size / 2**30:.3g} GiB of {what} projected, past "
                              f"the ceiling of {_MAX_PROJECTED_BYTES / 2**30:g} GiB")
    if files > _MAX_OUTPUT_FILES:
        raise ConfigError(f"{keys}: {files} files projected, past the ceiling of "
                          f"{_MAX_OUTPUT_FILES}")


def _check_pde_projection(cfg: RunConfig, runs: int, files: int, values: int) -> None:
    # per run: output_count snapshots of 6 rows of n, and about 64 rows of n
    # for the coefficient planes and a step's temporaries.  A rate or
    # manifold-distance study keeps no snapshots, only a few norms per output
    # time, so for the two studies this is an upper bound
    _check_projection(f"output_count={cfg.output_count} and n={cfg.n}",
                      runs * (6 * cfg.output_count + 64) * cfg.n * 8, files, values)


def _coerce(key: str, raw, where: str):
    parse, _ = _REGISTRY[key]
    if not isinstance(raw, str):
        return raw
    raw = raw.strip()
    if isinstance(parse, tuple):
        if raw not in parse:
            raise ConfigError(
                f"{where}: key {key!r} must be one of {list(parse)}, got {raw!r}"
            )
        return raw
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse value {raw!r} for key {key!r}") from None


class RunConfig:
    """Resolved configuration: defaults, then file values, then flag values."""

    def __init__(self, values: dict):
        self._values = dict(values)

    def __getattr__(self, key):
        try:
            return self._values[key]
        except KeyError:
            raise AttributeError(key) from None

    def as_dict(self) -> dict:
        return dict(self._values)

    def model_params(self) -> ModelParams:
        return ModelParams(**{k: self._values[k] for k in _PARAM_KEYS})

    def make_grid(self):
        return make_grid(self.L, self.n)


def _read_config_file(path: str) -> dict:
    raw = {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, value = (tok.strip() for tok in stripped.split("=", 1))
        if key not in _REGISTRY:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for key {key!r}")
        raw[key] = _coerce(key, value, f"{path}:{lineno}")
    return raw


def _validate(values: dict) -> None:
    for key, value in values.items():
        items = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ConfigError(f"key {key!r} must be finite, got {_fmt(value)}")
    try:
        ModelParams(**{k: values[k] for k in _PARAM_KEYS})
        make_grid(values["L"], values["n"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if values["T"] is not None and values["T"] < 0:
        raise ConfigError("key 'T' must be non-negative")
    if not 0.0 < values["cfl"] <= 1.0:
        raise ConfigError("key 'cfl' must lie in (0, 1]")
    if values["seed"] < 0:
        raise ConfigError("key 'seed' must be non-negative")
    if values["output_count"] < 2:
        # linspace(0, T, 1) is [0]: one output time would integrate nothing
        raise ConfigError("key 'output_count' must be >= 2")
    if values["eps"] <= 0:
        raise ConfigError("key 'eps' must be positive")
    el = values["eps_list"]
    if len(el) < 1 or any(e <= 0 for e in el) or any(
        b >= a for a, b in zip(el, el[1:])
    ):
        raise ConfigError("key 'eps_list' must be positive and strictly decreasing")
    g = values["gamma"]
    if g != "on_manifold" and g < 0:
        raise ConfigError("key 'gamma' must be non-negative or 'on_manifold'")
    if values["sweep_count"] < 1 or values["sweep_max"] <= values["sweep_min"]:
        raise ConfigError("sweep range must be non-empty with sweep_count >= 1")
    if values["sweep_param"] not in _PARAM_KEYS:
        raise ConfigError(
            f"key 'sweep_param' must name a model parameter, got {values['sweep_param']!r}"
        )


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, an optional config file, and flag overrides."""
    values = {k: d for k, (_, d) in _REGISTRY.items()}
    if path is not None:
        values.update(_read_config_file(path))
    for key, raw in (overrides or {}).items():
        if key not in _REGISTRY:
            raise ConfigError(f"flags: unknown key {key!r}")
        if raw is None:
            continue
        values[key] = _coerce(key, raw, "flags")
    _validate(values)
    return RunConfig(values)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def _write_echo(outdir: Path, cfg: RunConfig, subcommand: str, T: float) -> None:
    lines = [f"# fastsignal {subcommand}"]
    values = cfg.as_dict()
    values["T"] = T
    for key in sorted(values):
        if values[key] is None:
            continue
        lines.append(f"{key} = {_fmt(values[key])}")
    (outdir / "config_echo.txt").write_text("\n".join(lines) + "\n")


def _table(columns, leads) -> str:
    # a CSV's %-template: the header, then per row its leading value formatted in (it
    # holds no "%") and "%.17g" for each other one (f"{v:.17g}" of a float or 0/1 int)
    values = ",%.17g" * (len(columns) - 1) + "\n"
    return ",".join(columns) + "\n" + "".join(f"{x:.17g}{values}" for x in leads)


def _write_snapshots(outdir: Path, traj) -> None:
    # one template per run, with the x column formatted in once
    table = _table(("x", *_COMPONENTS), traj.grid.centers.tolist())
    for i, t in enumerate(traj.times):
        rows = table % tuple(traj.values[i].T.ravel().tolist())
        (outdir / f"t{i}_{t:.6g}.csv").write_text(rows)


def _cmd_simulate(cfg: RunConfig, T: float, limit: bool = False):
    # output_count snapshots of n rows and 7 columns, a summary and the echo
    _check_pde_projection(cfg, 1, cfg.output_count + 2, cfg.output_count * cfg.n * 7)
    p = cfg.model_params()
    u10, u20, u30 = default_initial_fields(cfg.make_grid())
    times = np.linspace(0.0, T, cfg.output_count)
    if limit:
        traj = run_limit(u10, u20, u30, T, p, times, cfl=cfg.cfl)
    else:
        v30 = make_layer_data(u30, cfg.gamma, cfg.eps, p)
        traj = run_eps(u10, u20, u30, v30, cfg.eps, T, p, times, cfl=cfg.cfl,
                       chemical_mode=cfg.chemical_mode)

    def write(out: Path) -> None:
        _write_snapshots(out, traj)
        frac = traj.clipped_mass / np.maximum(traj.initial_mass, 1e-300)
        (out / "summary.txt").write_text(
            f"steps = {traj.n_steps}\n"
            f"max_mass_balance_residual = {traj.max_balance_residual:.6e}\n"
            f"clipped_mass_fraction = {','.join(f'{f:.6e}' for f in frac)}\n"
        )

    return write, f" steps={traj.n_steps}"


def _cmd_rate_study(cfg: RunConfig, T: float):
    # at most one limit run per eps run; one report row of 9 columns per eps
    _check_pde_projection(cfg, 2 * len(cfg.eps_list), 3, 9 * len(cfg.eps_list))
    report = rate_study(
        *default_initial_fields(cfg.make_grid()), cfg.gamma, cfg.eps_list, T,
        cfg.model_params(), n_outputs=cfg.output_count, cfl=min(STUDY_CFL, cfg.cfl),
        chemical_mode=cfg.chemical_mode,
    )
    table = _table(("eps", "eps_in", *RateReport.COLUMNS), cfg.eps_list) % tuple(
        np.column_stack([report.eps_in, *(report.errors[c] for c in RateReport.COLUMNS)])
        .ravel().tolist())
    lines = [f"gamma = {cfg.gamma}", f"floor = {ERROR_FLOOR:g}", "fitted slopes:"]
    lines += [f"  {name}: slope = {slope:.4f}  residual = {res:.3e}  points = {npts}"
              for name, (slope, res, npts) in sorted(report.slopes.items())]

    def write(out: Path) -> None:
        (out / "rate_report.csv").write_text(table)
        (out / "summary.txt").write_text("\n".join(lines) + "\n")

    slopes = " ".join(
        f"{name}={slope:.3f}" for name, (slope, _, _) in sorted(report.slopes.items())
    )
    return write, f" {slopes}" if slopes else ""


def _cmd_manifold_distance(cfg: RunConfig, T: float):
    _check_pde_projection(cfg, len(cfg.eps_list), 3, 3 * len(cfg.eps_list) * cfg.output_count)
    times, dist, eps_in = manifold_distance_study(
        *default_initial_fields(cfg.make_grid()), cfg.gamma, cfg.eps_list, T,
        cfg.model_params(), np.linspace(0.0, T, cfg.output_count),
        cfl=min(STUDY_CFL, cfg.cfl), chemical_mode=cfg.chemical_mode,
    )
    table = _table(("eps", "t", "eps_t"), [e for e in cfg.eps_list for _ in times]) % tuple(
        np.stack(np.broadcast_arrays(times, dist), axis=-1).ravel().tolist())
    sup_late = dist[:, times >= 0.1 * T].max(axis=1)
    ratios = dist.max(axis=1) / np.maximum(eps_in, 1e-300)
    lines = [
        f"eps = {_fmt(tuple(cfg.eps_list))}",
        f"sup_eps_t_late = {','.join(f'{v:.6e}' for v in sup_late)}",
        f"max_over_initial = {','.join(f'{v:.6e}' for v in ratios)}",
    ]
    status = ""
    try:
        slope, res, npts = fit_slope(np.array(cfg.eps_list), sup_late)
        lines.append(f"late_distance_slope = {slope:.4f} (residual {res:.3e}, {npts} points)")
        status = f" slope={slope:.3f}"
    except ValueError as exc:
        lines.append(f"late_distance_slope = unavailable ({exc})")

    def write(out: Path) -> None:
        (out / "manifold_distance.csv").write_text(table)
        (out / "summary.txt").write_text("\n".join(lines) + "\n")

    return write, status


def _cmd_ode_simulate(cfg: RunConfig, T: float):
    y0, columns = MODELS[cfg.ode_model]
    n_eval = max(cfg.output_count, 2001) if T > 0 else 1  # at T = 0 every time is t = 0
    # about 64 floats per output time: t_eval, the states and their CSV rows;
    # ode.csv, a summary and the echo
    _check_projection(f"output_count={cfg.output_count}", n_eval * 64 * 8, 3,
                      n_eval * (1 + len(y0)))
    traj = integrate(model_rhs(cfg.ode_model, cfg.model_params()), y0, T,
                     t_eval=np.linspace(0.0, T, n_eval))
    osc = detect_oscillation(traj)

    def write(out: Path) -> None:
        (out / "ode.csv").write_text(_table(("t", *columns), traj.times.tolist())
                                     % tuple(traj.states.ravel().tolist()))
        (out / "summary.txt").write_text(
            f"model = {cfg.ode_model}\n"
            f"steps = {traj.n_steps}\nrejected = {traj.n_rejected}\n"
            f"oscillating = {osc.detected}\n"
            f"period = {osc.period if osc.period is not None else 'none'}\n"
            f"amplitude = {','.join(f'{a:.6e}' for a in osc.amplitude)}\n"
        )

    return write, f" oscillating={osc.detected}"


def _cmd_ode_bifurcation(cfg: RunConfig, T: float):
    if T <= 0:
        # T = 0 would report oscillating=0 for values never integrated
        raise ConfigError("key 'T' must be positive for ode-bifurcation")
    columns = ("param", "u1", "u2", "u3", "re_lambda_max", "stable", "oscillating",
               "amplitude_u1", "period")
    # about 64 floats per Newton row, one row per value and point of the
    # 6**dim guess lattice (an upper bound: the sweep solves in blocks); at
    # most one branch.csv row per Newton row, and the echo
    rows = cfg.sweep_count * 6 ** len(MODELS[cfg.ode_model][0])
    _check_projection(f"sweep_count={cfg.sweep_count}", rows * 64 * 8, 2, rows * len(columns))
    values = np.linspace(cfg.sweep_min, cfg.sweep_max, cfg.sweep_count)
    points = bifurcation_sweep(
        cfg.ode_model, cfg.sweep_param, values, cfg.model_params(), T_osc=T)
    cells, n_osc = [], 0
    for bp in points:
        state = dict(zip(MODELS[cfg.ode_model][1], bp.state.tolist()))
        osc = bp.oscillation
        oscillating = int(osc is not None and osc.detected)
        n_osc += oscillating
        amp = osc.amplitude[0] if osc is not None else math.nan
        period = osc.period if (osc is not None and osc.period is not None) else math.nan
        cells += [*(state.get(c, math.nan) for c in columns[1:4]),
                  bp.eigenvalues.real.max(), int(bp.stable), oscillating, amp, period]
    table = _table(columns, [bp.param_value for bp in points]) % tuple(cells)

    def write(out: Path) -> None:
        (out / "branch.csv").write_text(table)

    return write, f" points={len(points)} oscillating_points={n_osc}"


def _verify_semigroup(rng) -> tuple[float, list[str]]:
    """Semigroup identity on 60 random fields (largest residual / bound
    returned) and the single-mode closed form at 1e-12."""
    failures = []
    worst = 0.0
    grid = make_grid(1.0, 64)
    lam, mu = 1.0, 0.1
    for mus in (1.0, 10.0, 40.0):
        S = mus / mu
        for trial in range(20):
            f = Field(rng.standard_normal(grid.n), grid)
            res = semigroup_identity_residual(f, lam, mu, S)
            bound = np.exp(-mu * S) / mu * norm_l2(f)
            worst = max(worst, res / max(bound, 1e-300))
            if res > bound + 1e-14:
                failures.append(
                    f"semigroup bound violated at muS={mus} trial={trial}: "
                    f"{res:.3e} > {bound + 1e-14:.3e}"
                )
    for mus in (1.0, 5.0):
        S = mus / mu
        c = 0.7
        res = semigroup_identity_residual(Field.constant(grid, c), lam, mu, S)
        exact = c * np.exp(-mu * S) / mu
        if abs(res - exact) > 1e-12 * exact:
            failures.append(
                f"semigroup single-mode mismatch at muS={mus}: {res!r} vs {exact!r}"
            )
    return worst, failures


def _verify_solvers(rng) -> tuple[float, list[str]]:
    """The three Helmholtz solvers on 50 random 9-mode right-hand sides,
    pairwise within 1e-9 relative; returns the largest relative difference."""
    failures = []
    worst = 0.0
    grid = make_grid(1.0, 128)
    op = HelmholtzOperator(1.0, 0.1, grid)
    for trial in range(50):
        coeffs = rng.standard_normal(9)
        vals = coeffs[0] * np.ones(grid.n) + sum(
            coeffs[k] * mode_vector(grid, k) for k in range(1, 9)
        )
        rhs = Field(vals, grid)
        sols = {}
        for method in ("tridiagonal", "spectral", "cg"):
            v, _ = helmholtz_solve(op, rhs, method=method, tol=1e-10)
            sols[method] = v
        ref = norm_l2(sols["tridiagonal"])
        for a, b in (("tridiagonal", "spectral"), ("tridiagonal", "cg"),
                     ("spectral", "cg")):
            diff = norm_l2(Field(sols[a].values - sols[b].values, grid))
            worst = max(worst, diff / ref)
            if diff > 1e-9 * ref:
                failures.append(
                    f"solver disagreement {a} vs {b} on trial {trial}: "
                    f"{diff / ref:.3e} relative"
                )
    return worst, failures


def _verify_homogeneous(p: ModelParams, L: float) -> tuple[float, list[str]]:
    """Spatial means of homogeneous eps = 1e-3 and limit runs within 1e-6 of
    the 3pop ODE (rtol 1e-12); returns the largest deviation.  Two cases, one
    batch each: n = 16 at dt = 1e-3 with 41 output times, and n = 32 at its
    stable step with 21, which at the default parameters reads 8.7e-07, 87 %
    of the bound: the time-discretisation error of that step."""
    failures = []
    worst = 0.0
    T = 10.0
    c = MODELS["3pop"][0]
    v3 = c[2] * p.zeta3 / p.mu3
    if not math.isfinite(v3):
        raise ValueError(f"zeta3={p.zeta3:g} and mu3={p.mu3:g} make the homogeneous "
                         "chemical v3 = u3 * zeta3 / mu3 overflow")
    for n, dt, n_times in ((16, 1e-3, 41), (32, None, 21)):
        grid = make_grid(L, n)
        times = np.linspace(0.0, T, n_times)
        u0 = [Field.constant(grid, ci) for ci in c]
        v30 = Field.constant(grid, v3)
        ref = integrate(model_rhs("3pop", p), np.array(c), T, rtol=1e-12, atol=1e-14,
                        t_eval=times)
        for traj in run_batch(u0, [v30, None], [1e-3, None], T, p, times, dt=dt):
            dev = float(np.max(np.abs(traj.spatial_means() - ref.states)))
            worst = max(worst, dev)
            if dev > 1e-6:
                failures.append(f"homogeneous run (eps={traj.eps}, n={n}, dt={dt}) "
                                f"deviates from ODE by {dev:.3e}")
    return worst, failures


class _GateFailure(Exception):
    """A verify check failed; main maps it to exit code 3."""


def _cmd_verify(cfg: RunConfig, T: float):
    rng = np.random.default_rng(cfg.seed)
    checks = (
        ("semigroup-identity", lambda: _verify_semigroup(rng)),
        ("solver-cross-agreement", lambda: _verify_solvers(rng)),
        ("homogeneous-pde-ode", lambda: _verify_homogeneous(cfg.model_params(), cfg.L)),
    )
    any_failed = False
    for name, check in checks:
        _, failures = check()
        if failures:
            any_failed = True
            print(f"FAIL {name}: {failures[0]}" + (
                f" (+{len(failures) - 1} more)" if len(failures) > 1 else ""))
        else:
            print(f"PASS {name}")
    if any_failed:
        raise _GateFailure("verification gate failed")
    return None, ""


# subcommand -> body(cfg, T) returning (writer of the output files or None, status suffix)
_COMMANDS = {
    "simulate-eps": _cmd_simulate,
    "simulate-limit": lambda cfg, T: _cmd_simulate(cfg, T, limit=True),
    "rate-study": _cmd_rate_study,
    "manifold-distance": _cmd_manifold_distance,
    "ode-simulate": _cmd_ode_simulate,
    "ode-bifurcation": _cmd_ode_bifurcation,
    "verify": _cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ConfigError instead of printing usage and exiting,
    and reads a single-dash word that is no option (-5e-2, -inf, -0.1,0.2, -5e,
    -x) after a flag as its value: argparse reads all but -1 and -0.5 as flags."""

    def _parse_optional(self, arg_string):
        if (arg_string.startswith("-") and not arg_string.startswith("--")
                and arg_string not in self._option_string_actions):
            return None  # a positional word: a flag before it takes it
        return super()._parse_optional(arg_string)

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fastsignal", allow_abbrev=False,
        description="Numerical laboratory for a chemotaxis system and its "
                    "fast signal diffusion limit",
    )
    parser.add_argument("subcommand", choices=_COMMANDS)
    parser.add_argument("--config", default=None, help="flat key = value file")
    for key in _REGISTRY:
        parser.add_argument(f"--{key}", default=None, metavar="V")
    return parser


def _output_dir(cfg: RunConfig) -> Path:
    """The outdir, rooted at $FASTSIGNAL_OUTPUT_ROOT when relative; a
    validation error unless it is a directory or one can be made there."""
    out = Path(cfg.outdir)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not out.is_absolute():
        out = Path(root) / out
    for existing in (out, *out.parents):  # the nearest that exists must be a directory
        if os.path.exists(existing):
            if not existing.is_dir():
                raise ConfigError(f"key 'outdir': cannot make {out}, {existing} exists "
                                  "and is not a directory")
            break
    return out


def _error(kind: str, exc: Exception) -> None:
    print(f'fastsignal: status=error kind={kind} msg="{exc}"', file=sys.stderr)


def main(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # --help prints and exits 0
        return 0 if exc.code in (0, None) else 1
    except ConfigError as exc:
        _error("validation", exc)
        return 1
    overrides = {k: getattr(args, k) for k in _REGISTRY if getattr(args, k) is not None}
    sub = args.subcommand
    try:
        cfg = parse_config(args.config, overrides)
        T = cfg.T if cfg.T is not None else _SUBCOMMAND_T.get(sub)
        out = _output_dir(cfg) if sub != "verify" else None  # verify writes no files
        write, status = _COMMANDS[sub](cfg, T)
    except _GateFailure as exc:
        print(f'fastsignal: status=error kind=verify msg="{exc}"')
        return 3
    except (BlowUpError, StabilityError, StiffnessError, SolverConvergenceError) as exc:
        _error("numerical", exc)
        return 2
    except ValueError as exc:  # ConfigError included
        _error("validation", exc)
        return 1
    except MemoryError as exc:  # a last resort: the projections above bound every array
        _error("memory", exc if str(exc) else "out of memory")
        return 1
    if write is not None:
        try:
            out.mkdir(parents=True, exist_ok=True)
            _write_echo(out, cfg, sub, T)
            write(out)
        except OSError as exc:
            _error("io", exc)
            return 1
        status += f" outdir={out}"
    print(f"fastsignal: status=ok cmd={sub}{status}")
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
