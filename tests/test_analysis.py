"""Tests for norms, layer construction, manifold distances and rate fitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fastsignal.analysis import (
    InitialLayerSpec,
    compare_trajectories,
    fit_slope,
    initial_layer_size,
    make_layer_data,
    manifold_distance,
    manifold_projection,
    norm_h1,
    norm_h2_proxy,
    norm_l2,
    rate_study,
    semigroup_identity_residual,
)
from fastsignal.grid import Field, make_grid, mode_eigenvalues, mode_vector
from fastsignal.model import default_params
from fastsignal.sim_eps import State, Trajectory, default_initial_fields, run_limit

P = default_params()
GRID = make_grid(1.0, 256)


def test_norm_l2_examples():
    assert np.isclose(norm_l2(Field.constant(GRID, -2.5)), 2.5, atol=1e-13)
    assert norm_l2(Field.constant(GRID, 0.0)) == 0.0
    phi1 = Field(mode_vector(GRID, 1), GRID)
    # cell-centered cosine quadrature is exact: sum cos^2 = n/2
    assert abs(norm_l2(phi1) - np.sqrt(0.5)) <= 1e-13


def test_norm_h1_examples():
    c = Field.constant(GRID, 1.7)
    assert np.isclose(norm_h1(c), norm_l2(c), atol=1e-13)
    phi1 = Field(mode_vector(GRID, 1), GRID)
    grad_sq = norm_h1(phi1) ** 2 - norm_l2(phi1) ** 2
    assert abs(grad_sq - np.pi**2 / 2.0) <= 0.01 * np.pi**2 / 2.0
    assert norm_h1(Field.constant(GRID, 0.0)) == 0.0


def test_norm_h2_proxy_zero_and_constant():
    assert norm_h2_proxy(Field.constant(GRID, 0.0)) == 0.0
    c = Field.constant(GRID, 2.0)
    assert np.isclose(norm_h2_proxy(c), norm_l2(c), atol=1e-12)


def test_norm_homogeneity():
    rng = np.random.default_rng(0)
    f = Field(rng.standard_normal(GRID.n), GRID)
    for norm in (norm_l2, norm_h1, norm_h2_proxy):
        for c in (-3.0, 0.5):
            scaled = Field(c * f.values, GRID)
            assert np.isclose(norm(scaled), abs(c) * norm(f), rtol=1e-12)


def test_manifold_projection_examples():
    c = 0.8
    v = manifold_projection(Field.constant(GRID, c), P)
    assert np.max(np.abs(v.values - c * P.zeta3 / P.mu3)) <= 1e-10
    a1 = mode_eigenvalues(GRID)[1]
    phi1 = Field(mode_vector(GRID, 1), GRID)
    v1 = manifold_projection(phi1, P)
    expected = mode_vector(GRID, 1) / (-P.lambda3 * a1 + P.mu3)
    assert np.max(np.abs(v1.values - expected)) <= 1e-12


def test_initial_layer_size_examples():
    u30 = Field.constant(GRID, 0.9)
    proj = manifold_projection(u30, P)
    assert initial_layer_size(u30, proj, P) <= 1e-9
    c = 0.6
    assert np.isclose(
        initial_layer_size(Field.constant(GRID, c), Field.constant(GRID, 0.0), P),
        c, atol=1e-12,
    )
    a1 = mode_eigenvalues(GRID)[1]
    phi1 = Field(mode_vector(GRID, 1), GRID)
    got = initial_layer_size(Field.constant(GRID, 0.0), phi1, P)
    expected = (P.lambda3 * abs(a1) + P.mu3) * np.sqrt(0.5)
    assert abs(got - expected) <= 1e-8 * expected


def test_make_layer_data_round_trip():
    _, _, u30 = default_initial_fields(GRID)
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5):
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            v30 = make_layer_data(u30, InitialLayerSpec(gamma, eps), P)
            got = initial_layer_size(u30, v30, P)
            assert abs(got - eps**gamma) <= 1e-9 * eps**gamma + 1e-12


def test_make_layer_data_on_manifold_and_errors():
    _, _, u30 = default_initial_fields(GRID)
    v30 = make_layer_data(u30, InitialLayerSpec("on_manifold", 1e-3), P)
    assert initial_layer_size(u30, v30, P) <= 1e-9
    with pytest.raises(ValueError):
        InitialLayerSpec("off_manifold", 1e-3)
    with pytest.raises(ValueError):
        InitialLayerSpec(-0.5, 1e-3)
    with pytest.raises(ValueError):
        InitialLayerSpec(1.0, 0.0)
    # the cosine perturbation's operator image squares to 0
    tiny = P.with_updates(lambda3=1e-170, mu3=1e-170)
    with pytest.raises(ValueError, match="zero operator image"):
        make_layer_data(u30, InitialLayerSpec(1.0, 1e-2), tiny)


def test_layer_spec_rejects_nan_gamma():
    # nan < 0 is false: accepted, it made a non-finite datum in make_layer_data
    with pytest.raises(ValueError, match="gamma must be non-negative, got nan"):
        InitialLayerSpec(float("nan"), 1e-2)


def test_manifold_distance_at_t0_equals_layer_size():
    from fastsignal.sim_eps import State

    u10, u20, u30 = default_initial_fields(GRID)
    v30 = make_layer_data(u30, InitialLayerSpec(0.5, 1e-2), P)
    s = State(0.0, 1e-2, u10, u20, u30, v30, v30, v30)
    assert np.isclose(manifold_distance(s, P), initial_layer_size(u30, v30, P),
                      rtol=1e-12)


def test_manifold_distance_limit_state_near_zero():
    grid = make_grid(1.0, 32)
    u10, u20, u30 = default_initial_fields(grid)
    traj = run_limit(u10, u20, u30, 0.5, P, np.linspace(0, 0.5, 5))
    for s in traj.states:
        assert manifold_distance(s, P) <= 1e-9


def test_compare_trajectories_identical_and_shifted():
    grid = make_grid(1.0, 16)
    u10, u20, u30 = default_initial_fields(grid)
    traj = run_limit(u10, u20, u30, 0.0, P)
    same = compare_trajectories(traj, traj)
    assert all(v == 0.0 for v in same.as_dict().values())

    import copy

    shifted = copy.deepcopy(traj)
    c = 0.37
    shifted.values[0, 0] += c
    comp = compare_trajectories(traj, shifted)
    assert np.isclose(comp.err_u1, c, atol=1e-12)
    assert comp.err_u2 == 0.0 and comp.err_u3 == 0.0


def _compare_per_snapshot(A, B):
    """compare_trajectories as a loop of the Field norms over the snapshots."""
    grid = A.states[0].grid
    sup = {k: 0.0 for k in ("u1", "u2", "u3", "v1", "v2", "v3_h1")}
    v3_h2_sq = []
    for sa, sb in zip(A.states, B.states):
        for name in ("u1", "u2", "u3"):
            d = Field(getattr(sa, name).values - getattr(sb, name).values, grid)
            sup[name] = max(sup[name], norm_l2(d))
        for name in ("v1", "v2"):
            d = Field(getattr(sa, name).values - getattr(sb, name).values, grid)
            sup[name] = max(sup[name], norm_h2_proxy(d))
        d3 = Field(sa.v3.values - sb.v3.values, grid)
        sup["v3_h1"] = max(sup["v3_h1"], norm_h1(d3))
        v3_h2_sq.append(norm_h2_proxy(d3) ** 2)
    l2h2 = (float(np.sqrt(np.trapezoid(v3_h2_sq, A.times))) if len(A.times) > 1
            else float(np.sqrt(v3_h2_sq[0])))
    return [sup[k] for k in ("u1", "u2", "u3", "v1", "v2", "v3_h1")] + [l2h2]


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 20), n=st.integers(4, 64), data=st.data())
def test_compare_trajectories_equals_per_snapshot_norms(t, n, data):
    """Row-wise norms of stacked snapshots are bitwise the per-snapshot Field norms."""
    grid = make_grid(1.0, n)
    times = np.linspace(0.0, 1.0, t)

    def trajectory():
        values = data.draw(arrays(float, (t, 6, n), elements=st.floats(-100.0, 100.0)))
        return Trajectory(times, values, grid, None, np.zeros(3), 0, 0.0)

    a, b = trajectory(), trajectory()
    got = list(compare_trajectories(a, b).as_dict().values())
    want = _compare_per_snapshot(a, b)
    assert all(type(x) is float for x in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_compare_trajectories_rejects_mismatches():
    grid = make_grid(1.0, 16)
    u10, u20, u30 = default_initial_fields(grid)
    a = run_limit(u10, u20, u30, 0.5, P, np.linspace(0, 0.5, 3))
    b = run_limit(u10, u20, u30, 0.5, P, np.linspace(0, 0.5, 5))
    with pytest.raises(ValueError):
        compare_trajectories(a, b)
    other_grid = make_grid(1.0, 32)
    c = run_limit(*default_initial_fields(other_grid), 0.5, P, np.linspace(0, 0.5, 3))
    with pytest.raises(ValueError):
        compare_trajectories(a, c)


def test_fit_slope_recovers_power_law():
    eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    err = 3.0 * eps**0.75
    slope, residual, n = fit_slope(eps, err)
    assert abs(slope - 0.75) <= 1e-12 and n == 4
    # entries below the floor are excluded
    err2 = err.copy()
    err2[-1] = 1e-12
    slope2, _, n2 = fit_slope(eps, err2)
    assert n2 == 3 and abs(slope2 - 0.75) <= 1e-12
    with pytest.raises(ValueError):
        fit_slope(eps, np.full(4, 1e-12))


def test_semigroup_identity_single_mode_closed_form():
    grid = make_grid(1.0, 64)
    lam, mu, c = 1.0, 0.1, 0.7
    for muS in (1.0, 5.0):
        S = muS / mu
        res = semigroup_identity_residual(Field.constant(grid, c), lam, mu, S)
        exact = c * np.exp(-mu * S) / mu
        assert abs(res - exact) <= 1e-12 * exact
    # large horizon: exponentially small residual
    res40 = semigroup_identity_residual(Field.constant(grid, c), lam, mu, 400.0)
    assert res40 <= 1e-15 * c
    assert semigroup_identity_residual(Field.constant(grid, 0.0), lam, mu, 1.0) == 0.0
    with pytest.raises(ValueError):
        semigroup_identity_residual(Field.constant(grid, 1.0), lam, mu, 0.0)


def test_rate_study_small_on_manifold():
    """Slope ~1 for every component and monotone errors on a coarse grid."""
    grid = make_grid(1.0, 32)
    u10, u20, u30 = default_initial_fields(grid)
    report = rate_study(u10, u20, u30, "on_manifold", [1e-2, 1e-3, 1e-4], 0.5, P,
                        n_outputs=9)
    for name in ("err_u1", "err_u2", "err_u3", "err_v3_h1"):
        slope, _, _ = report.slopes[name]
        assert abs(slope - 1.0) <= 0.15, name
        errs = report.errors[name]
        assert np.all(np.diff(errs) < 0)  # decreasing as eps decreases
    assert np.all(report.eps_in <= 1e-9)
    # Theorem-shape bound with the constant fitted at the largest eps
    eps = report.eps_list
    for name in ("err_u1", "err_u2", "err_u3"):
        errs = report.errors[name]
        C = errs[0] / (np.sqrt(eps[0]) * (report.eps_in[0] + np.sqrt(eps[0])))
        bound = 3.0 * C * np.sqrt(eps) * (report.eps_in + np.sqrt(eps))
        assert np.all(errs <= bound)


def test_layer_study_is_one_batch_equal_to_per_pair_runs(monkeypatch):
    """A numeric-gamma study steps every eps run and its own limit run as one
    batch, each pair at its own dt_eps, and each member is bitwise the run of
    its pair alone."""
    from fastsignal import analysis
    from fastsignal.sim_eps import initial_stable_dt, run_batch

    grid = make_grid(1.0, 16)
    u0 = default_initial_fields(grid)
    gamma, eps_list, T, n_outputs = 0.5, (1e-2, 1e-3, 1e-4), 0.2, 5
    calls = []

    def spy(u0, v30s, eps, *args, **kwargs):
        calls.append((eps, run_batch(u0, v30s, eps, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(analysis, "run_batch", spy)
    report = rate_study(*u0, gamma, eps_list, T, P, n_outputs=n_outputs)
    assert len(calls) == 1
    members, batch = calls[0]
    assert members == [*eps_list, None, None, None]

    times = np.linspace(0.0, T, n_outputs)
    v30s = [make_layer_data(u0[2], InitialLayerSpec(gamma, e), P) for e in eps_list]
    dt0 = initial_stable_dt(*u0, v30s[0], P, 0.45)
    for i, (eps, v30) in enumerate(zip(eps_list, v30s)):
        dt = dt0 * float(np.sqrt(eps / eps_list[0]))
        pair = run_batch(u0, [v30, None], [eps, None], T, P, times, dt=dt)
        for got, ref in zip((batch[i], batch[len(eps_list) + i]), pair):
            assert got.n_steps == ref.n_steps
            assert np.array_equal(got.clipped_mass, ref.clipped_mass)
            assert got.max_balance_residual == ref.max_balance_residual
            for sg, sr in zip(got.states, ref.states):
                for name in ("u1", "u2", "u3", "v1", "v2", "v3"):
                    assert np.array_equal(getattr(sg, name).values, getattr(sr, name).values)
        for c, val in compare_trajectories(*pair).as_dict().items():
            assert report.errors[c][i] == val
    # each pair kept its own schedule
    assert len({traj.n_steps for traj in batch}) == len(eps_list)


def test_rate_study_csv_and_summary_shapes():
    grid = make_grid(1.0, 16)
    u10, u20, u30 = default_initial_fields(grid)
    report = rate_study(u10, u20, u30, 1.0, [1e-2, 1e-3, 1e-4], 0.2, P, n_outputs=5)
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0].startswith("eps,eps_in,err_u1")
    assert len(lines) == 4
    assert "fitted slopes" in report.summary_text()


def test_rate_study_validation():
    grid = make_grid(1.0, 16)
    u10, u20, u30 = default_initial_fields(grid)
    with pytest.raises(ValueError):
        rate_study(u10, u20, u30, 1.0, [1e-2, 1e-3], 0.2, P)
    with pytest.raises(ValueError):
        rate_study(u10, u20, u30, 1.0, [1e-3, 1e-2, 1e-4], 0.2, P)
    with pytest.raises(ValueError):
        rate_study(u10, u20, u30, 1.0, [1e-2, 1e-3, 1e-4], 0.0, P)
    for T in (np.nan, np.inf):  # checked before the output times are spaced over T
        with pytest.raises(ValueError, match="finite T > 0"):
            rate_study(u10, u20, u30, 1.0, [1e-2, 1e-3, 1e-4], T, P)
