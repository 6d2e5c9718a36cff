"""Tests for config parsing, the CLI subcommands, and output determinism."""

import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import fastsignal
import fastsignal.analysis as analysis
from fastsignal.analysis import (
    InitialLayerSpec,
    fit_slope,
    initial_layer_size,
    make_layer_data,
    manifold_distance,
    rate_study,
)
from fastsignal.cli import ConfigError, _write_snapshots, main, parse_config
from fastsignal.grid import make_grid
from fastsignal.model import default_params
from fastsignal.sim_eps import default_initial_fields, run_eps, run_limit

FAST_RATE_FLAGS = [
    "--n", "16", "--T", "0.1", "--output_count", "3",
    "--eps_list", "1e-2,1e-3,1e-4",
]


def test_parse_config_defaults(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("# nothing here\n\n")
    cfg = parse_config(str(empty))
    assert cfg.alpha1 == 0.8
    assert cfg.k == 0.1 and cfg.l == 0.1
    assert cfg.n == 256 and cfg.L == 1.0
    assert cfg.gamma == "on_manifold"
    assert cfg.eps_list == (1e-2, 1e-3, 1e-4, 1e-5)


def test_parse_config_single_override(tmp_path):
    f = tmp_path / "one.cfg"
    f.write_text("alpha1 = 0.9\n")
    cfg = parse_config(str(f))
    assert cfg.alpha1 == 0.9
    assert cfg.alpha2 == 1.0  # untouched


def test_parse_config_rejects_bad_grid(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("n = 3\n")
    with pytest.raises(ConfigError) as err:
        parse_config(str(f))
    assert "n" in str(err.value)


def test_parse_config_unknown_key_names_line(tmp_path):
    f = tmp_path / "unk.cfg"
    f.write_text("alpha1 = 0.9\nnonsense = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(str(f))
    assert "2" in str(err.value) and "nonsense" in str(err.value)


def test_parse_config_malformed_line(tmp_path):
    f = tmp_path / "mal.cfg"
    f.write_text("alpha1 0.9\n")
    with pytest.raises(ConfigError) as err:
        parse_config(str(f))
    assert "1" in str(err.value)


def test_parse_config_flag_overrides_file(tmp_path):
    f = tmp_path / "f.cfg"
    f.write_text("alpha1 = 0.9\n")
    cfg = parse_config(str(f), {"alpha1": "0.7"})
    assert cfg.alpha1 == 0.7


def test_parse_config_gamma_and_eps_list():
    cfg = parse_config(None, {"gamma": "0.5"})
    assert cfg.gamma == 0.5
    with pytest.raises(ConfigError):
        parse_config(None, {"gamma": "-1"})
    with pytest.raises(ConfigError):
        parse_config(None, {"eps_list": "1e-3,1e-2"})
    with pytest.raises(ConfigError):
        parse_config(None, {"chemical_mode": "weird"})


def test_missing_config_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.cfg")


@pytest.mark.parametrize(
    "argv, mu",
    [
        (["simulate-eps", "--n", "8", "--T", "0.01", "--mu1", "1e-300"], "mu=1e-300"),
        (["simulate-eps", "--n", "8", "--T", "0.01", "--mu1", "5e-324"], "mu=4.94066e-324"),
        (["simulate-limit", "--n", "8", "--T", "0.01", "--mu3", "1e-300"], "mu=1e-300"),
        (["rate-study", "--n", "16", "--T", "0.1", "--eps_list", "1e-2,1e-3,1e-4",
          "--mu2", "1e-300"], "mu=1e-300"),
    ],
    ids=["simulate-eps-mu1", "simulate-eps-mu1-subnormal", "simulate-limit-mu3",
         "rate-study-mu2"],
)
def test_decay_lost_in_round_off_is_a_validation_error(tmp_path, capsys, argv, mu):
    # mu below 2**-53 of the largest mode rate: the operator is singular in
    # floating point, so no run may report ok or write inf into its outputs
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([*argv, "--outdir", str(tmp_path / "out")])
    assert rc == 1
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith('fastsignal: status=error kind=validation msg="decay ')
    assert mu in err[0] and "lam=1" in err[0] and f"n={argv[2]}" in err[0]
    assert not (tmp_path / "out" / "rate_report.csv").exists()


def test_main_validation_exit_code(tmp_path, capsys):
    rc = main(["simulate-eps", "--n", "3", "--outdir", str(tmp_path / "o")])
    assert rc == 1
    # a cell width whose square is 0 or inf is rejected before any operator
    # divides by it
    for L in ("1e-200", "1e160"):
        capsys.readouterr()
        rc = main(["simulate-eps", "--n", "16", "--T", "0.01", "--L", L,
                   "--outdir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith('fastsignal: status=error kind=validation msg="')
        assert f"L={float(L)}" in err[0] and "n=16" in err[0]
    assert not (tmp_path / "o").exists()


def test_main_simulate_eps_zero_horizon(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate-eps", "--T", "0", "--n", "16", "--eps", "1e-5",
               "--outdir", str(out)])
    assert rc == 0
    assert (out / "t0_0.csv").is_file()
    assert (out / "config_echo.txt").is_file()
    header = (out / "t0_0.csv").read_text().splitlines()[0]
    assert header == "x,u1,u2,u3,v1,v2,v3"


def test_main_simulate_limit_short(tmp_path):
    out = tmp_path / "runlim"
    rc = main(["simulate-limit", "--T", "0.05", "--n", "16", "--output_count", "3",
               "--outdir", str(out)])
    assert rc == 0
    assert (out / "summary.txt").is_file()


def test_config_echo_reparses(tmp_path):
    out = tmp_path / "echo"
    rc = main(["simulate-eps", "--T", "0", "--n", "16", "--outdir", str(out)])
    assert rc == 0
    cfg = parse_config(str(out / "config_echo.txt"))
    assert cfg.n == 16 and cfg.T == 0.0


def test_rate_study_deterministic_output(tmp_path):
    outa, outb = tmp_path / "a", tmp_path / "b"
    for out in (outa, outb):
        rc = main(["rate-study", *FAST_RATE_FLAGS, "--outdir", str(out)])
        assert rc == 0
    csv_a = (outa / "rate_report.csv").read_bytes()
    csv_b = (outb / "rate_report.csv").read_bytes()
    assert csv_a == csv_b


def test_rate_study_status_without_slopes_has_single_spaces(tmp_path, capsys):
    # at T = 1e-300 every error sits below the fit floor, so no slope is fitted
    out = tmp_path / "o"
    assert main(["rate-study", "--n", "16", "--T", "1e-300", "--outdir", str(out)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.split(" ") == ["fastsignal:", "status=ok", "cmd=rate-study", f"outdir={out}"]


def test_workers_is_an_unknown_key(tmp_path, capsys):
    # every rate study is one batch in one process; the knob is gone
    rc = main(["rate-study", *FAST_RATE_FLAGS, "--gamma", "0.5", "--workers", "2",
               "--outdir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith('fastsignal: status=error kind=validation msg="')
    assert "--workers" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["mixed", "fully_parabolic"])
def test_chemical_mode_reaches_rate_study_and_manifold_distance(tmp_path, mode):
    p = default_params()
    grid = make_grid(1.0, 16)
    u0 = default_initial_fields(grid)
    eps_list = (1e-2, 1e-3, 1e-4)
    rc = main(["rate-study", *FAST_RATE_FLAGS, "--gamma", "0.5", "--chemical_mode", mode,
               "--outdir", str(tmp_path / "rate")])
    assert rc == 0
    ref = rate_study(*u0, 0.5, eps_list, 0.1, p, n_outputs=3, cfl=0.45,
                     chemical_mode=mode)
    assert (tmp_path / "rate" / "rate_report.csv").read_text() == ref.to_csv()

    rc = main(["manifold-distance", *FAST_RATE_FLAGS, "--chemical_mode", mode,
               "--outdir", str(tmp_path / "dist")])
    assert rc == 0
    rows = ["eps,t,eps_t"]
    for eps in eps_list:
        v30 = make_layer_data(u0[2], InitialLayerSpec("on_manifold", eps), p)
        traj = run_eps(*u0, v30, eps, 0.1, p, np.linspace(0.0, 0.1, 3), cfl=0.45,
                       chemical_mode=mode)
        rows += [f"{eps:.17g},{t:.17g},{manifold_distance(s, p):.17g}"
                 for t, s in zip(traj.times, traj.states)]
    written = (tmp_path / "dist" / "manifold_distance.csv").read_text()
    assert written == "\n".join(rows) + "\n"


def manifold_distance_per_eps_files(eps_list, gamma, T, n, count):
    """manifold_distance.csv and summary.txt as one run_eps per eps writes them."""
    p = default_params()
    u0 = default_initial_fields(make_grid(1.0, n))
    times = np.linspace(0.0, T, count)
    rows, sup_late, ratios = ["eps,t,eps_t"], [], []
    for eps in eps_list:
        v30 = make_layer_data(u0[2], InitialLayerSpec(gamma, eps), p)
        eps_in = initial_layer_size(u0[2], v30, p)
        traj = run_eps(*u0, v30, eps, T, p, times, cfl=0.45)
        dist = np.array([manifold_distance(s, p) for s in traj.states])
        rows += [f"{eps:.17g},{t:.17g},{d:.17g}" for t, d in zip(traj.times, dist)]
        sup_late.append(float(dist[traj.times >= 0.1 * T].max()))
        ratios.append(float(dist.max() / max(eps_in, 1e-300)))
    slope, res, npts = fit_slope(np.array(eps_list), np.array(sup_late))
    summary = [
        f"eps = {','.join(repr(float(e)) for e in eps_list)}",
        f"sup_eps_t_late = {','.join(f'{v:.6e}' for v in sup_late)}",
        f"max_over_initial = {','.join(f'{v:.6e}' for v in ratios)}",
        f"late_distance_slope = {slope:.4f} (residual {res:.3e}, {npts} points)",
    ]
    return "\n".join(rows) + "\n", "\n".join(summary) + "\n"


@pytest.mark.parametrize("gamma", ["on_manifold", "0.5"])
def test_manifold_distance_is_one_batch_equal_to_per_eps_runs(tmp_path, monkeypatch, gamma):
    calls = []
    run_batch = analysis.run_batch
    monkeypatch.setattr(analysis, "run_batch",
                        lambda *a, **kw: calls.append(a) or run_batch(*a, **kw))
    eps_list = (1e-2, 1e-3, 1e-4)
    rc = main(["manifold-distance", "--n", "32", "--T", "0.3", "--output_count", "7",
               "--gamma", gamma, "--eps_list", "1e-2,1e-3,1e-4",
               "--outdir", str(tmp_path)])
    assert rc == 0
    assert len(calls) == 1
    g = gamma if gamma == "on_manifold" else float(gamma)
    csv, summary = manifold_distance_per_eps_files(eps_list, g, 0.3, 32, 7)
    assert (tmp_path / "manifold_distance.csv").read_text() == csv
    assert (tmp_path / "summary.txt").read_text() == summary


def test_unknown_sweep_param_is_a_validation_error(tmp_path, capsys):
    rc = main(["ode-bifurcation", "--sweep_param", "foo", "--sweep_count", "2",
               "--outdir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith('fastsignal: status=error kind=validation msg="')
    assert "sweep_param" in err[0] and "'foo'" in err[0]
    assert not (tmp_path / "out").exists()


def test_zero_layer_perturbation_image_names_its_keys(tmp_path, capsys):
    # the cosine perturbation's image under lambda3 Lap - mu3 squares to 0
    rc = main(["rate-study", "--gamma", "0.5", "--lambda3", "1e-170", "--mu3", "1e-170",
               "--outdir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith('fastsignal: status=error kind=validation msg="')
    assert "lambda3=1e-170" in err[0] and "mu3=1e-170" in err[0]
    assert not (tmp_path / "out").exists()


def test_overflowing_pp_sweep_fails_without_a_warning(tmp_path, capsys):
    # at m1 = 1e308 the Newton's determinants, candidate residuals and the
    # eigenpairs overflow; each is treated as missing, and the long
    # integration then fails as a numerical error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["ode-bifurcation", "--ode_model", "pp", "--sweep_param", "m1",
                   "--sweep_min", "1", "--sweep_max", "1e308", "--sweep_count", "2",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith('fastsignal: status=error kind=numerical msg="')
    assert "status=" not in captured.out
    assert not (tmp_path / "out").exists()


def test_manifold_distance_smoke(tmp_path):
    out = tmp_path / "md"
    rc = main(["manifold-distance", "--n", "16", "--T", "0.2", "--output_count", "5",
               "--eps_list", "1e-2,1e-3,1e-4", "--outdir", str(out)])
    assert rc == 0
    lines = (out / "manifold_distance.csv").read_text().splitlines()
    assert lines[0] == "eps,t,eps_t"
    assert len(lines) == 1 + 3 * 5


def test_ode_simulate_pp(tmp_path):
    out = tmp_path / "ode"
    rc = main(["ode-simulate", "--ode_model", "pp", "--T", "50",
               "--output_count", "101", "--outdir", str(out)])
    assert rc == 0
    header = (out / "ode.csv").read_text().splitlines()[0]
    assert header == "t,u1,u3"
    assert "oscillating" in (out / "summary.txt").read_text()


def test_ode_bifurcation_small_sweep(tmp_path):
    out = tmp_path / "bif"
    rc = main(["ode-bifurcation", "--ode_model", "pp", "--sweep_min", "0.5",
               "--sweep_max", "0.8", "--sweep_count", "4", "--eta1", "1.0",
               "--outdir", str(out)])
    assert rc == 0
    lines = (out / "branch.csv").read_text().splitlines()
    assert lines[0] == "param,u1,u2,u3,re_lambda_max,stable,oscillating,amplitude_u1,period"
    assert len(lines) > 4


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FASTSIGNAL_OUTPUT_ROOT", str(tmp_path))
    rc = main(["simulate-eps", "--T", "0", "--n", "16", "--outdir", "nested/run"])
    assert rc == 0
    assert (tmp_path / "nested" / "run" / "t0_0.csv").is_file()


def test_usage_error_maps_to_validation():
    assert main(["no-such-command"]) == 1


def test_main_numerical_failure_exit_code(tmp_path, capsys):
    # the stable step, 8.9e-306, cannot move the clock to T = 0.01: this must
    # surface as a numerical failure, not as a run of ~1e303 steps
    rc = main(["simulate-eps", "--n", "16", "--T", "0.01", "--output_count", "2",
               "--chi1", "1e305", "--outdir", str(tmp_path / "fail")])
    assert rc == 2
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith('fastsignal: status=error kind=numerical msg="step ')
    assert "too small" in lines[0]


def test_unknown_flag_prints_validation_line(tmp_path, capsys):
    # removed options: the exponential-update order, the stepper's elliptic
    # solver choice (stepping always solves in the cosine modes), and the
    # chemotactic flux (always the upwind donor-cell flux)
    for flag, value in (("--etd_order", "2"), ("--solver_method", "gmres"),
                        ("--solver_tol", "1e-10"), ("--flux_scheme", "central")):
        rc = main(["simulate-eps", flag, value])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith('fastsignal: status=error kind=validation msg="')
        assert flag in err[0]
    # so is an old config echo that still holds a removed key
    cfg = tmp_path / "config_echo.txt"
    for key, value in (("solver_method", "tridiagonal"), ("flux_scheme", "upwind")):
        cfg.write_text(f"n = 16\n{key} = {value}\n")
        rc = main(["simulate-eps", "--config", str(cfg), "--outdir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith('fastsignal: status=error kind=validation msg="')
        assert f"unknown key {key!r}" in err[0]
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        # unchecked, these print status=ok without an oscillation check, print
        # status=ok after zero steps, and (T = inf) never return
        ["ode-bifurcation", "--ode_model", "pp", "--sweep_count", "2", "--t_osc", "nan"],
        ["simulate-eps", "--T", "nan", "--n", "16"],
        ["simulate-limit", "--T", "inf", "--n", "16"],
        ["rate-study", "--n", "16", "--eps_list", "1e-2,nan"],
    ],
    ids=["t_osc-nan", "T-nan", "T-inf", "eps_list-nan"],
)
def test_non_finite_float_is_a_validation_error(tmp_path, capsys, argv):
    rc = main([*argv, "--outdir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith('fastsignal: status=error kind=validation msg="key ')
    assert "must be finite" in err[0]
    assert not (tmp_path / "out").exists()


_IMPORT_GUARD = """
import sys
from fastsignal.cli import main

def loaded(*roots):
    return [m for m in sys.modules if m.split(".")[0] in roots]

out = sys.argv[1]
assert main(["ode-bifurcation", "--ode_model", "pp", "--eta1", "0.2", "--eta2", "0.2",
             "--sweep_min", "0.6", "--sweep_max", "0.7", "--sweep_count", "2",
             "--t_osc", "100", "--outdir", out + "/bif"]) == 0
assert main(["ode-simulate", "--ode_model", "3pop", "--T", "20",
             "--outdir", out + "/sim"]) == 0
# the PDE commands transform with numpy's FFT; a layer study is one batch in
# this process, so no process pool is loaded either
flags = ["--n", "16", "--T", "0.05", "--output_count", "2", "--eps_list", "1e-2,1e-3,1e-4"]
assert main(["simulate-eps", "--T", "0.001", "--n", "16", "--output_count", "2",
             "--outdir", out + "/eps"]) == 0
assert main(["simulate-limit", "--T", "0.001", "--n", "16", "--output_count", "2",
             "--outdir", out + "/limit"]) == 0
assert main(["rate-study", *flags, "--outdir", out + "/rate"]) == 0
assert main(["rate-study", *flags, "--gamma", "0.5", "--outdir", out + "/layer"]) == 0
assert main(["manifold-distance", *flags, "--outdir", out + "/md"]) == 0
# verify cross-checks the cosine modes against the numpy banded Cholesky
assert main(["verify"]) == 0
assert not loaded("scipy", "multiprocessing"), loaded("scipy", "multiprocessing")
assert "concurrent.futures.process" not in sys.modules
# np.unique imports numpy.ma on its first call; the output times are deduplicated without it
assert "numpy.ma" not in sys.modules
"""


def test_no_command_imports_scipy_or_multiprocessing(tmp_path):
    src = str(Path(fastsignal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("status=ok") == 8


def test_write_snapshots_matches_per_value_formatting(tmp_path):
    grid = make_grid(1.0, 16)
    traj = run_limit(*default_initial_fields(grid), 0.01, default_params(),
                     np.linspace(0.0, 0.01, 3))
    columns = ("u1", "u2", "u3", "v1", "v2", "v3")
    _write_snapshots(tmp_path, traj)
    x = grid.centers
    for i, (t, s) in enumerate(zip(traj.times, traj.states)):
        data = [getattr(s, c).values for c in columns]
        rows = ["x," + ",".join(columns)]
        for j in range(x.size):
            rows.append(",".join([f"{x[j]:.17g}"] + [f"{d[j]:.17g}" for d in data]))
        written = (tmp_path / f"t{i}_{t:.6g}.csv").read_text()
        assert written == "\n".join(rows) + "\n"


# CLI runs whose CSVs and summaries are pinned byte for byte in tests/data/golden/<case>/.
# The PDE path goes through array np.exp/np.expm1 and numpy's FFT, whose SIMD
# kernels numpy picks per CPU: the files were recorded with numpy 2.4.6 on an
# x86-64 Xeon, and a mismatch under another build or CPU is not by itself a
# regression; re-record from the parent commit to tell.
_GOLDEN_CASES = {
    "simulate_eps_mixed": ["simulate-eps", "--n", "48", "--T", "0.1", "--eps", "1e-3"],
    "simulate_eps_fully_parabolic": ["simulate-eps", "--n", "48", "--T", "0.1",
                                     "--eps", "1e-3", "--chemical_mode", "fully_parabolic"],
    "simulate_limit": ["simulate-limit", "--n", "48", "--T", "0.1"],
    "rate_study_on_manifold": ["rate-study", "--n", "16", "--T", "0.1",
                               "--eps_list", "1e-2,1e-3,1e-4"],
    # per-member dt: each step advances only the members short of the output time
    "rate_study_gamma": ["rate-study", "--gamma", "0.5", "--n", "16", "--T", "0.1",
                         "--eps_list", "1e-2,1e-3,1e-4"],
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_CASES))
def test_pde_outputs_match_golden(tmp_path, case):
    assert main([*_GOLDEN_CASES[case], "--output_count", "3",
                 "--outdir", str(tmp_path)]) == 0
    golden = Path(__file__).parent / "data" / "golden" / case
    written = {f.name for f in tmp_path.iterdir()} - {"config_echo.txt"}
    assert written == {f.name for f in golden.iterdir()}
    for name in sorted(written):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


# Each subcommand's config_echo.txt and stdout, pinned byte for byte in
# tests/data/golden/cli/<case>/ (stdout.txt), with every output file of the
# cases that no other golden pins.  Runs write to the relative outdir "out", so
# the echo and the status line do not depend on the test's directory.
_CLI_GOLDEN_CASES = {
    **{case: [*argv, "--output_count", "3"] for case, argv in _GOLDEN_CASES.items()},
    "manifold_distance": ["manifold-distance", "--n", "16", "--T", "0.2",
                          "--output_count", "5"],
    "ode_simulate_pp": ["ode-simulate", "--ode_model", "pp", "--T", "50"],
    # the echo holds T = t_osc
    "ode_bifurcation_pp": ["ode-bifurcation", "--ode_model", "pp", "--sweep_min", "0.5",
                           "--sweep_max", "0.8", "--sweep_count", "4", "--eta1", "1.0",
                           "--t_osc", "300"],
    "verify": ["verify"],
}


@pytest.mark.parametrize("case", sorted(_CLI_GOLDEN_CASES))
def test_cli_echo_stdout_and_files_match_golden(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FASTSIGNAL_OUTPUT_ROOT", raising=False)
    assert main([*_CLI_GOLDEN_CASES[case], "--outdir", "out"]) == 0
    golden = Path(__file__).parent / "data" / "golden" / "cli" / case
    captured = capsys.readouterr()
    assert captured.out == (golden / "stdout.txt").read_text()
    assert captured.err == ""
    out = tmp_path / "out"
    written = {f.name for f in out.iterdir()} if out.exists() else set()
    pinned = {f.name for f in golden.iterdir()} - {"stdout.txt"}
    if case in _GOLDEN_CASES:
        assert pinned == {"config_echo.txt"}
        assert pinned <= written
    else:
        assert written == pinned
    for name in sorted(pinned):
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-eps", "--n", "16", "--T", "0.5"],
        ["rate-study", "--n", "16", "--T", "0.1", "--eps_list", "1e-2,1e-3"],
        ["ode-simulate", "--T", "1"],
        ["ode-bifurcation", "--sweep_count", "2"],
    ],
    ids=["simulate-eps", "rate-study", "ode-simulate", "ode-bifurcation"],
)
def test_output_count_below_two_is_a_validation_error(tmp_path, capsys, argv):
    # linspace(0, T, 1) is [0]: a PDE run would integrate nothing and report ok.
    # The check is shared by every command, so the ODE commands reject 1 too.
    rc = main([*argv, "--output_count", "1", "--outdir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith('fastsignal: status=error kind=validation msg="key ')
    assert "'output_count'" in err[0]
    assert not (tmp_path / "out").exists()


_OSC_SWEEP = ["ode-bifurcation", "--ode_model", "pp", "--eta1", "0.2", "--eta2", "0.2",
              "--sweep_min", "0.6", "--sweep_max", "0.7", "--sweep_count", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        # unchecked, a sweep with a stable equilibrium at every value prints
        # status=ok; one without stops in integrate with a message naming 'T';
        # and t_osc = 0 writes oscillating=0 for values it never integrated
        ["ode-bifurcation", "--ode_model", "pp", "--sweep_count", "2", "--t_osc", "-1"],
        [*_OSC_SWEEP, "--t_osc", "-1"],
        [*_OSC_SWEEP, "--t_osc", "0"],
    ],
    ids=["negative-all-stable", "negative-unstable", "zero-unstable"],
)
def test_t_osc_not_positive_is_a_validation_error(tmp_path, capsys, argv):
    rc = main([*argv, "--outdir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith('fastsignal: status=error kind=validation msg="key ')
    assert "'t_osc'" in err[0]
    assert not (tmp_path / "out").exists()


def test_flags_may_precede_the_subcommand(tmp_path):
    # one parser declares every flag once, next to the subcommand positional
    first, last = tmp_path / "first", tmp_path / "last"
    assert main(["--n", "16", "--T", "0", "simulate-eps", "--outdir", str(first)]) == 0
    assert main(["simulate-eps", "--n", "16", "--T", "0", "--outdir", str(last)]) == 0
    assert (first / "t0_0.csv").read_bytes() == (last / "t0_0.csv").read_bytes()


@pytest.mark.parametrize("model", ["3pop", "pp"])
def test_sweep_value_with_non_finite_jacobian_is_a_validation_error(tmp_path, capsys, model):
    # eta1 = 5e-324 squares to 0, so the Jacobian at u1 = 0 is 0/0: unchecked,
    # 3pop failed with numpy's message and pp wrote re_lambda_max = nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["ode-bifurcation", "--ode_model", model, "--sweep_param", "eta1",
                   "--sweep_min", "5e-324", "--sweep_max", "1", "--sweep_count", "2",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith('fastsignal: status=error kind=validation msg="')
    assert "eta1=5e-324" in err[0]
    assert not (tmp_path / "out").exists()


def test_negative_seed_is_a_validation_error(capsys):
    rc = main(["verify", "--seed", "-1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert err == ['fastsignal: status=error kind=validation msg="key \'seed\' must be '
                   'non-negative"']


def test_subnormal_eps_runs_without_overflow_warning(tmp_path):
    # dt / eps overflows to inf: the decay factor is its limit 0, not an error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["simulate-eps", "--n", "16", "--T", "0.01", "--eps", "5e-324",
                   "--outdir", str(tmp_path)])
    assert rc == 0
    assert not caught, [str(w.message) for w in caught]
    for f in tmp_path.glob("t*.csv"):
        assert np.isfinite(np.loadtxt(f, delimiter=",", skiprows=1)).all()


def test_ode_simulate_past_the_projected_step_ceiling_fails_fast(tmp_path, capsys):
    # DP54's step stays bounded near the stable equilibrium, so T = 1e300
    # would take ~1e299 steps; the projection after 4 096 of them stops it
    start = time.perf_counter()
    rc = main(["ode-simulate", "--ode_model", "pp", "--T", "1e300",
               "--outdir", str(tmp_path / "out")])
    assert time.perf_counter() - start <= 1.0
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith('fastsignal: status=error kind=numerical msg="')
    assert "steps projected" in err[0] and "T=1e+300" in err[0]
    assert "status=" not in captured.out
    assert not (tmp_path / "out").exists()


_SHORT = ["--n", "8", "--T", "0.01", "--output_count", "3", "--eps_list", "1e-2,1e-3,1e-4"]


@pytest.mark.parametrize("argv, code, named", [
    # kinetics_jacobian's s1 * s1 overflows at an equilibrium: dh1 = 0, its limit
    (["ode-bifurcation", "--sweep_count", "3", "--t_osc", "5", "--eta1", "1e300"], 0, ""),
    # a line-search candidate of the Newton solve sits on a pole of the kinetics
    (["ode-bifurcation", "--sweep_count", "3", "--t_osc", "5", "--l", "1e300"], 2,
     "step size underflow"),
    # the mode rates overflow before _mode_rates rejects them
    (["simulate-eps", *_SHORT, "--lambda3", "1.7e308"], 1, "lam=1.7e+308"),
    # an initial elliptic solve overflows
    (["simulate-eps", *_SHORT, "--zeta1", "1.7e308"], 1, "zeta1=1.7e+308"),
    (["simulate-eps", *_SHORT, "--zeta3", "1.7e308"], 1, "zeta3=1.7e+308"),
    (["rate-study", *_SHORT, "--zeta3", "1.7e308"], 1, "zeta3=1.7e+308"),
    (["simulate-limit", *_SHORT, "--zeta3", "1.7e308"], 1, "zeta3=1.7e+308"),
])
def test_extreme_coefficient_ends_in_one_status_line_without_a_warning(
        tmp_path, capsys, argv, code, named):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([*argv, "--outdir", str(tmp_path / "out")])
    assert not caught, [str(w.message) for w in caught]
    assert rc == code
    captured = capsys.readouterr()
    status = [line for line in (captured.out + captured.err).splitlines() if "status=" in line]
    assert len(status) == 1
    kind = {0: "status=ok", 1: "kind=validation", 2: "kind=numerical"}[code]
    assert kind in status[0] and named in status[0]


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(fastsignal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*args):
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", *args],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)

    # without a __main__ guard, running the module would exit 0 and run nothing
    result = run("fastsignal.cli", "simulate-eps", "--n", "2")
    assert result.returncode == 1
    assert (result.stdout + result.stderr).count("status=") == 1
    assert 'status=error kind=validation msg="cell count' in result.stderr
    result = run("fastsignal", "--help")
    assert result.returncode == 0
    assert result.stdout.startswith("usage: fastsignal")
