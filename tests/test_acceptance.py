"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or on failure).
The heavier studies are shared through module-scoped fixtures; the whole
module is sized to run in a few minutes on one machine.
"""

import time

import numpy as np
import pytest

from fastsignal import cli
from fastsignal.analysis import (
    compare_trajectories,
    fit_slope,
    initial_layer_size,
    make_layer_data,
    manifold_projection,
    rate_study,
)
from fastsignal.cli import _verify_semigroup, _verify_solvers, main
from fastsignal.grid import Field, make_grid
from fastsignal.model import default_params, kinetics, kinetics_jacobian
from fastsignal.ode import bifurcation_sweep
from fastsignal.sim_eps import default_initial_fields, initial_stable_dt, run_batch

P = default_params()
EPS_SWEEP = (1e-2, 1e-3, 1e-4, 1e-5)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def on_manifold_report():
    grid = make_grid(1.0, 256)
    u10, u20, u30 = default_initial_fields(grid)
    t0 = time.time()
    rep = rate_study(u10, u20, u30, "on_manifold", EPS_SWEEP, 2.0, P,
                     n_outputs=64, cfl=0.6)
    rep.elapsed = time.time() - t0
    return rep


@pytest.fixture(scope="module")
def layer_reports():
    grid = make_grid(1.0, 32)
    u10, u20, u30 = default_initial_fields(grid)
    out = {}
    t0 = time.time()
    for gamma in (0.25, 0.5, 1.5):
        out[gamma] = rate_study(u10, u20, u30, gamma, EPS_SWEEP, 2.0, P,
                                n_outputs=64, cfl=0.45)
    out["elapsed"] = time.time() - t0
    return out


def test_criterion_1_on_manifold_rates(on_manifold_report):
    rep = on_manifold_report
    slopes = {}
    for name in ("err_u1", "err_u2", "err_u3", "err_v3_h1"):
        slope, _, npts = rep.slopes[name]
        slopes[name] = slope
        assert npts >= 3
    ok = all(abs(s - 1.0) <= 0.15 for s in slopes.values()) and rep.elapsed < 300
    detail = (
        " ".join(f"{k}={v:.3f}" for k, v in slopes.items())
        + f" runtime={rep.elapsed:.0f}s"
    )
    report("criterion-1 on-manifold rates", ok, detail)


def test_criterion_2_layer_rates(layer_reports):
    windows = {
        0.25: {"u": (0.75, 0.15), "v3": (0.25, 0.10)},
        0.5: {"u": (1.0, 0.15), "v3": (0.5, 0.10)},
        1.5: {"u": (1.0, 0.15), "v3": (1.0, 0.15)},
    }
    ok = layer_reports["elapsed"] < 900
    details = [f"runtime={layer_reports['elapsed']:.0f}s"]
    for gamma, window in windows.items():
        rep = layer_reports[gamma]
        for name in ("err_u1", "err_u2", "err_u3"):
            slope = rep.slopes[name][0]
            center, tol = window["u"]
            ok = ok and abs(slope - center) <= tol
            details.append(f"g{gamma}:{name}={slope:.3f}")
        slope = rep.slopes["err_v3_h1"][0]
        center, tol = window["v3"]
        ok = ok and abs(slope - center) <= tol
        details.append(f"g{gamma}:v3={slope:.3f}")
    report("criterion-2 initial-layer rates", ok, " ".join(details))


def test_criterion_3_order_of_magnitude_separation():
    # kinetics that actually cycle (eta=0.2) with species data centered on the
    # interior reaction equilibrium, so the gradient transient dominates
    pv = P.with_updates(eta1=0.2, eta2=0.2)
    eq = (0.38421061, 0.78499380, 0.22557247)
    grid = make_grid(1.0, 128)
    w = np.cos(np.pi * grid.centers / grid.L)
    u10 = Field(eq[0] + 0.15 * w, grid)
    u20 = Field(eq[1] - 0.15 * w, grid)
    u30 = Field(eq[2] + 0.10 * w, grid)
    v30 = manifold_projection(u30, pv)
    eps = 1e-5
    T = 2.0
    times = np.linspace(0.0, T, 64)
    dt = initial_stable_dt(u10, u20, u30, v30, pv, 0.6)
    te, lim = run_batch((u10, u20, u30), [v30, None], [eps, None], T, pv, times, dt=dt)
    comp = compare_trajectories(te, lim)
    u_err = max(comp.err_u1, comp.err_u2, comp.err_u3)
    v3_err = comp.err_v3_h1
    ratio = v3_err / u_err
    ok = u_err <= 1e-4 and v3_err <= 1e-3 and 3.0 <= ratio <= 300.0
    report("criterion-3 error separation",
           ok, f"u_err={u_err:.3e} v3_err={v3_err:.3e} ratio={ratio:.1f}")


def test_criterion_4_manifold_distance():
    grid = make_grid(1.0, 64)
    u10, u20, u30 = default_initial_fields(grid)
    T = 2.0
    times = np.linspace(0.0, T, 33)
    # the on-manifold sweep and a gamma = 0 member at eps0 = 1e-3, as one batch
    layers = [*(("on_manifold", e) for e in EPS_SWEEP), (0.0, 1e-3)]
    v30s = [make_layer_data(u30, gamma, eps, P) for gamma, eps in layers]
    trajs = run_batch((u10, u20, u30), v30s, [eps for _, eps in layers], T, P, times,
                      cfl=0.6)
    dists = [np.array([initial_layer_size(Field(x[2], grid), Field(x[5], grid), P)
                       for x in traj.values]) for traj in trajs]
    sup_late = [dist[times >= 0.1 * T].max() for dist in dists[:-1]]
    slope, _, _ = fit_slope(np.array(EPS_SWEEP), np.array(sup_late))

    eps_in = initial_layer_size(u30, v30s[-1], P)
    dist0 = dists[-1]
    ok = abs(slope - 1.0) <= 0.2 and dist0.max() <= 3.0 * eps_in
    report("criterion-4 manifold distance",
           ok, f"slope={slope:.3f} gamma0_sup={dist0.max():.3f} eps_in={eps_in:.3f}")


def test_criterion_5_semigroup_identity():
    worst, failures = _verify_semigroup(np.random.default_rng(0))
    single_ok = not any("single-mode" in f for f in failures)
    report("criterion-5 semigroup identity", not failures,
           f"worst residual/bound={worst:.3f} single-mode 1e-12 ok={single_ok}")


def test_criterion_6_solver_cross_agreement():
    worst, failures = _verify_solvers(np.random.default_rng(1))
    report("criterion-6 solver agreement", not failures, f"worst rel diff={worst:.2e}")


def test_criterion_7_homogeneous_consistency(verify_homogeneous):
    worst, failures = verify_homogeneous(P, 1.0)
    report("criterion-7 PDE-ODE consistency", not failures, f"max deviation={worst:.2e}")


def test_criterion_8_conservation_positivity():
    grid = make_grid(1.0, 64)
    u10, u20, u30 = default_initial_fields(grid)
    v30 = make_layer_data(u30, "on_manifold", 1e-3, P)
    runs = run_batch((u10, u20, u30), [v30, None], [1e-3, None], 2.0, P,
                     np.linspace(0, 2, 9), cfl=0.9)
    worst_res = max(t.max_balance_residual for t in runs)
    worst_clip = max(
        float(np.max(t.clipped_mass / t.initial_mass)) for t in runs
    )
    ok = worst_res <= 1e-8 and worst_clip <= 1e-8
    report("criterion-8 conservation/positivity", ok,
           f"balance={worst_res:.2e} clipped fraction={worst_clip:.2e}")


def test_criterion_9_ode_regimes():
    # predator-prey sweep at eta = 0.2 (the spec leaves eta free; eta = 1
    # provably yields no oscillation for any m1)
    pv = P.with_updates(eta1=0.2, eta2=0.2)
    values = np.linspace(0.05, 1.5, 25)
    points = bifurcation_sweep("pp", "m1", values, pv, T_osc=2000.0)
    by_value = {}
    for bp in points:
        by_value.setdefault(bp.param_value, []).append(bp)
    extinction, coexist, oscillating = [], [], []
    for val in sorted(by_value):
        branch = by_value[val]
        stable = [bp for bp in branch if bp.stable]
        if any(bp.oscillation is not None and bp.oscillation.detected for bp in branch):
            oscillating.append(val)
        elif any(np.min(bp.state) > 1e-6 for bp in stable):
            coexist.append(val)
        elif stable:
            extinction.append(val)
    pp_ok = (
        bool(extinction) and bool(coexist) and bool(oscillating)
        and max(extinction) < min(coexist) < min(oscillating)
    )

    # three-population sweep: keep eta1 at its default, eta2 = 0.05 so the
    # predator pressure can exclude the second prey at large m1
    p3 = P.with_updates(eta2=0.05)
    points3 = bifurcation_sweep("3pop", "m1", values, p3, T_osc=2000.0)
    u2_extinct = sorted(
        {
            bp.param_value
            for bp in points3
            if bp.stable and bp.state[1] <= 1e-6 and bp.state[2] > 1e-6
        }
    )
    lo_quarter = values[values <= values[0] + 0.25 * (values[-1] - values[0])]
    hi_quarter = values[values >= values[0] + 0.75 * (values[-1] - values[0])]
    three_ok = (
        bool(u2_extinct)
        and all(v in u2_extinct for v in hi_quarter)
        and not any(v in u2_extinct for v in lo_quarter)
    )
    detail = (
        f"pp regimes ext<= {max(extinction) if extinction else None} "
        f"coex in [{min(coexist) if coexist else None}, {max(coexist) if coexist else None}] "
        f"osc>= {min(oscillating) if oscillating else None}; "
        f"3pop u2-extinct branch on [{u2_extinct[0] if u2_extinct else None}, "
        f"{u2_extinct[-1] if u2_extinct else None}]"
    )
    report("criterion-9 ODE regime ordering", pp_ok and three_ok, detail)


def test_criterion_10_kinetics_reference_values():
    import sympy as sp

    u1, u2, u3 = sp.symbols("u1 u2 u3", nonnegative=True)
    a1, a2 = sp.Rational(8, 10), sp.Integer(1)
    b1, b2 = sp.Rational(6, 10), sp.Rational(5, 10)
    m1, m2 = sp.Rational(3, 10), sp.Rational(1, 10)
    e1, e2 = sp.Integer(1), sp.Integer(1)
    g1, g2 = sp.Rational(5, 10), sp.Rational(3, 10)
    k, l = sp.Rational(1, 10), sp.Rational(1, 10)
    F = sp.Matrix(
        [
            a1 * u1 * (1 - u1 - b1 * u2) - m1 * u1 / (e1 + u1) * u3,
            a2 * u2 * (1 - u2 - b2 * u1) - m2 * u2 / (e2 + u2) * u3,
            (g1 * m1 * u1 / (e1 + u1) + g2 * m2 * u2 / (e2 + u2) - k) * u3 - l * u3**2,
        ]
    )
    at_ones = [float(fi.subs({u1: 1, u2: 1, u3: 1})) for fi in F]
    got = kinetics(1.0, 1.0, 1.0, P)
    kin_ok = all(abs(g - o) <= 1e-12 for g, o in zip(got, at_ones))
    kin_ok = kin_ok and np.allclose(at_ones, [-0.63, -0.55, -0.11], atol=1e-15)

    J = F.jacobian([u1, u2, u3]).subs({u1: 0, u2: 0, u3: 0})
    J_oracle = np.array(J.tolist(), dtype=float)
    J_got = kinetics_jacobian(0.0, 0.0, 0.0, P)
    jac_ok = np.max(np.abs(J_got - J_oracle)) <= 1e-12
    jac_ok = jac_ok and np.allclose(J_oracle, np.diag([0.8, 1.0, -0.1]), atol=1e-15)
    report("criterion-10 kinetics oracle", kin_ok and jac_ok,
           f"kinetics={got} jac_diag={np.diag(J_got)}")


def test_verify_subcommand_gate(monkeypatch, verify_homogeneous):
    monkeypatch.setattr(cli, "_verify_homogeneous", verify_homogeneous)
    rc = main(["verify"])
    report("verify-gate exit code", rc == 0, f"exit={rc}")
