"""Tests for config parsing, the CLI subcommands, and output determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fastsignal
from fastsignal.analysis import (
    InitialLayerSpec,
    make_layer_data,
    manifold_distance,
    rate_study,
)
from fastsignal.cli import ConfigError, _write_snapshots, main, parse_config
from fastsignal.grid import make_grid
from fastsignal.model import default_params
from fastsignal.sim_eps import default_initial_fields, run_eps
from fastsignal.sim_limit import run_limit

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


def test_main_validation_exit_code(tmp_path):
    rc = main(["simulate-eps", "--n", "3", "--outdir", str(tmp_path / "o")])
    assert rc == 1


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


def test_main_numerical_failure_exit_code(tmp_path):
    # an unattainable GMRES tolerance must surface as a numerical failure
    rc = main(["simulate-limit", "--T", "0.001", "--n", "256", "--output_count", "2",
               "--solver_method", "gmres", "--solver_tol", "1e-15",
               "--outdir", str(tmp_path / "fail")])
    assert rc == 2


def test_unknown_flag_prints_validation_line(capsys):
    rc = main(["simulate-eps", "--etd_order", "2"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith('fastsignal: status=error kind=validation msg="')
    assert "--etd_order" in err[0]


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

out = sys.argv[1]
assert main(["ode-bifurcation", "--ode_model", "pp", "--eta1", "0.2", "--eta2", "0.2",
             "--sweep_min", "0.6", "--sweep_max", "0.7", "--sweep_count", "2",
             "--t_osc", "100", "--outdir", out + "/bif"]) == 0
assert main(["ode-simulate", "--ode_model", "3pop", "--T", "20",
             "--outdir", out + "/sim"]) == 0
loaded = [m for m in sys.modules if m.split(".")[0] in ("scipy", "multiprocessing")]
assert not loaded, loaded
assert main(["simulate-eps", "--T", "0.001", "--n", "16", "--output_count", "2",
             "--outdir", out + "/pde"]) == 0
assert "scipy.fft" in sys.modules
# a layer study is one batch in this process: no process pool is loaded
assert main(["rate-study", "--gamma", "0.5", "--n", "16", "--T", "0.05",
             "--output_count", "2", "--eps_list", "1e-2,1e-3,1e-4",
             "--outdir", out + "/layer"]) == 0
loaded = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
assert not loaded, loaded
"""


def test_ode_commands_import_neither_scipy_nor_multiprocessing(tmp_path):
    src = str(Path(fastsignal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("status=ok") == 4


def test_write_snapshots_matches_per_value_formatting(tmp_path):
    grid = make_grid(1.0, 16)
    traj = run_limit(*default_initial_fields(grid), 0.01, default_params(),
                     np.linspace(0.0, 0.01, 3))
    columns = ("u1", "u2", "u3", "v1", "v2", "v3")
    _write_snapshots(tmp_path, traj, columns)
    x = grid.centers
    for i, (t, s) in enumerate(zip(traj.times, traj.states)):
        data = [getattr(s, c).values for c in columns]
        rows = ["x," + ",".join(columns)]
        for j in range(x.size):
            rows.append(",".join([f"{x[j]:.17g}"] + [f"{d[j]:.17g}" for d in data]))
        written = (tmp_path / f"t{i}_{t:.6g}.csv").read_text()
        assert written == "\n".join(rows) + "\n"
