"""Tests for the two time integrators and their shared stepping machinery."""

import tempfile
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fastsignal import sim_eps
from fastsignal.analysis import (
    compare_trajectories,
    initial_layer_size,
    make_layer_data,
    manifold_distance_study,
    norm_l2,
)
from fastsignal.cli import _write_snapshots
from fastsignal.grid import Field, Grid, _chemotaxis_div, _laplacian, make_grid
from fastsignal.linsolve import (
    HelmholtzOperator,
    _exp_ramp_values,
    _spectral_resolvent,
    from_modes,
    to_modes,
)
from fastsignal.model import _POSITIVE, ModelParams, default_params, kinetics
from fastsignal.ode import integrate, ode_rhs_3pop
from fastsignal.sim_eps import (
    BlowUpError,
    StabilityError,
    _heun_species,
    _integrate,
    _normalise_output_times,
    _reaction_rate_bounds,
    _species_planes,
    _species_rates,
    _stable_dt_values,
    _Stepper,
    default_initial_fields,
    initial_stable_dt,
    run_batch,
    run_eps,
    run_limit,
)

P = default_params()


class Snapshot(NamedTuple):
    """One run at time t: (3, n) species u and chemicals v; eps is None for
    the limiting system."""

    t: float
    eps: float | None
    grid: Grid
    u: np.ndarray
    v: np.ndarray


def stable_dt(s, p, cfl):
    """The stable step of one Snapshot, through the kernel every run uses."""
    return float(_stable_dt_values(s.u, s.v, p, s.grid.dx, cfl))


def step(s, p, dt):
    """One step of one Snapshot, through a batch of one of the stepping kernel."""
    u, v, _ = _Stepper(s.grid, p, s.eps).step(s.t, s.u, s.v, dt)
    return Snapshot(s.t + dt, s.eps, s.grid, u[0], v[0])


def make_homogeneous_state(grid, eps=1e-3, c=(1.0, 1.0, 0.5)):
    """Species at the constants c, chemicals at their elliptic solves."""
    v = (P.zeta1 * c[0] / P.mu1, P.zeta2 * c[1] / P.mu2, P.zeta3 * c[2] / P.mu3)
    u, v = (np.full((3, grid.n), np.reshape(x, (3, 1)), dtype=float) for x in (c, v))
    return Snapshot(0.0, eps, grid, u, v)


def test_stable_dt_zero_state_formula():
    grid = make_grid(1.0, 256)
    s = make_homogeneous_state(grid, c=(0.0, 0.0, 0.0))
    dt = stable_dt(s, P, 0.9)
    expected = 0.9 * grid.dx**2 / (2.0 * 0.1)
    assert abs(dt - expected) <= 0.01 * expected  # reaction term is small at zero


def test_stable_dt_scales_with_dx_squared():
    dts = []
    for n in (64, 128):
        grid = make_grid(1.0, n)
        s = make_homogeneous_state(grid, c=(0.0, 0.0, 0.0))
        dts.append(stable_dt(s, P, 0.9))
    assert abs(dts[0] / dts[1] - 4.0) <= 0.1


def test_stable_dt_validation():
    grid = make_grid(1.0, 16)
    s = make_homogeneous_state(grid)
    with pytest.raises(ValueError):
        stable_dt(s, P, 0.0)
    with pytest.raises(ValueError):
        stable_dt(s, P, 1.5)


def test_step_preserves_zero_state():
    grid = make_grid(1.0, 16)
    s = make_homogeneous_state(grid, c=(0.0, 0.0, 0.0))
    out = step(s, P, 1e-3)
    assert np.all(out.u == 0.0) and np.all(out.v == 0.0)
    sl = make_homogeneous_state(grid, eps=None, c=(0.0, 0.0, 0.0))
    outl = step(sl, P, 1e-3)
    assert np.all(outl.u == 0.0)


def test_step_keeps_homogeneous_state_homogeneous():
    grid = make_grid(1.0, 32)
    s = make_homogeneous_state(grid)
    out = step(s, P, 1e-3)
    for vals in (*out.u, *out.v):
        assert np.max(vals) - np.min(vals) <= 1e-13


def test_slow_chemical_fixed_point_without_reaction():
    # with the kinetics switched off, u3 = c and v3 = c/mu3 is a fixed point
    frozen = P.with_updates(alpha1=0.0, alpha2=0.0, m1=0.0, m2=0.0, k=0.0, l=0.0)
    grid = make_grid(1.0, 16)
    c = 0.7
    s = make_homogeneous_state(grid, c=(c, c, c))
    out = step(s, frozen, 1e-3)
    assert np.max(np.abs(out.u[2] - c)) <= 1e-14
    assert np.max(np.abs(out.v[2] - c / frozen.mu3)) <= 1e-12


def test_run_eps_zero_horizon_single_snapshot():
    grid = make_grid(1.0, 16)
    u10, u20, u30 = default_initial_fields(grid)
    v30 = Field.constant(grid, 1.0)
    traj = run_eps(u10, u20, u30, v30, 1e-3, 0.0, P)
    assert len(traj.values) == 1 and traj.times[0] == 0.0
    # the fast chemicals start from their elliptic solves
    op1 = HelmholtzOperator(P.lambda1, P.mu1, grid)
    assert np.max(np.abs(op1.apply(traj.values[0, 3]) - P.zeta1 * u10.values)) <= 1e-9


def test_mass_balance_and_positivity():
    grid = make_grid(1.0, 64)
    u10, u20, u30 = default_initial_fields(grid)
    v30 = Field.constant(grid, 0.5 / P.mu3)
    traj = run_eps(u10, u20, u30, v30, 1e-3, 1.0, P, np.linspace(0, 1, 5))
    assert traj.max_balance_residual <= 1e-8
    assert np.all(traj.clipped_mass <= 1e-8 * traj.initial_mass)
    assert traj.values[:, :3].min() >= 0.0


def test_fixed_dt_self_convergence_first_order():
    grid = make_grid(1.0, 32)
    u10, u20, u30 = default_initial_fields(grid)
    v30 = Field.constant(grid, 0.5 / P.mu3)
    T = 1.0
    times = np.array([0.0, T])
    base = 8e-4
    sols = {}
    for dt in (base, base / 2, base / 8):
        traj = run_eps(u10, u20, u30, v30, 1e-3, T, P, times, dt=dt)
        sols[dt] = traj.values[-1]
    ref = sols[base / 8]
    errs = []
    for dt in (base, base / 2):
        # u1, u2, u3 and v3
        diff = max(norm_l2(Field(sols[dt][i] - ref[i], grid)) for i in (0, 1, 2, 5))
        errs.append(diff)
    ratio = errs[0] / errs[1]
    assert 1.5 <= ratio <= 5.0  # at least first order in the splitting


def _method_of_lines(p: ModelParams, grid: Grid):
    """The limiting system on the grid as one ODE for the (3 n,) species, built
    independently of the stepper: diffusion from _laplacian, each drift from
    _chemotaxis_div (prey away from v3, the predator up v1 and v2), reactions
    from kinetics, and the chemicals from the cosine-mode resolvent.  Returns
    the right-hand side and the chemicals of a species state."""
    lam = (p.lambda1, p.lambda2, p.lambda3)
    mu = (p.mu1, p.mu2, p.mu3)
    zeta = (p.zeta1, p.zeta2, p.zeta3)
    dx = grid.dx

    def chemicals(u):
        return np.array([_spectral_resolvent(lam[i], mu[i], grid, zeta[i] * u[i])
                         for i in range(3)])

    def rhs(y):
        u = y.reshape(3, grid.n)
        v = chemicals(u)
        f = kinetics(u[0], u[1], u[2], p)
        return np.concatenate([
            p.d1 * _laplacian(u[0], dx) + _chemotaxis_div(u[0], v[2], p.chi1, dx) + f[0],
            p.d2 * _laplacian(u[1], dx) + _chemotaxis_div(u[1], v[2], p.chi2, dx) + f[1],
            p.d3 * _laplacian(u[2], dx) + _chemotaxis_div(u[2], v[0], -p.chi31, dx)
            + _chemotaxis_div(u[2], v[1], -p.chi32, dx) + f[2]])

    return rhs, chemicals


@pytest.mark.parametrize("updates, T, N0", [
    ({}, 0.2, 25),
    ({"eta1": 0.2, "eta2": 0.2, "m1": 0.6}, 2.0, 250),  # the oscillatory regime
], ids=["default", "oscillatory"])
def test_limit_run_converges_to_method_of_lines_reference(updates, T, N0):
    """run_limit at n = 16 with dt = T / N converges at first order in dt to
    the method-of-lines solution of the same spatial discretisation.

    Derivation of the bounds.  Write G(u) = F(u, R(u)) for the limiting
    system, F the species rates at chemicals v and R the resolvent.  One step
    is Heun's method (SSP-RK2) on the species with the chemicals frozen at
    v = R(u_n), then v = R(u_{n+1}).  Heun reproduces the frozen system's
    flow to O(h^3), and the frozen system drops the term F_v R' G of the
    exact u'' = G_u G = F_u G + F_v R' G, so the local error is
    -(h^2 / 2) F_v R' G + O(h^3), non-zero wherever the chemicals move.
    Summed over T / h steps the global error at T is e_h = h c + h^2 d +
    O(h^3), c != 0.  The error E_h = |e_h| of every component (species and
    chemicals, max norm) then falls per halving of h by

        E_h / E_{h/2} = 2 (1 + b h) / (1 + b h / 2) + O(h^2) = 2 + b h + O(h^2),

    with b the size of d relative to c.  d collects the next Taylor terms, one
    more time derivative of the solution and of the error than c, so b is a
    multiple of the solution's rate Lam = max_t |G_u G| / |G| (|u''| / |u'|,
    taken on the reference): the test allows |b| <= 10 Lam, so each ratio
    lies within 2 +- 10 Lam h.  Lam is 2.3-2.5 in both regimes and the
    measured |b| 0-3.8 Lam.  The reference (DP54 at rtol 1e-12) is within
    3e-13 of one at rtol 1e-14, below 1e-7 of the finest error, so it moves
    no ratio measurably.
    A wrong coefficient or a stale chemical makes the errors stall at the
    gap between the two solutions, and the ratios fall towards 1.
    """
    p = P.with_updates(**updates)
    grid = make_grid(1.0, 16)
    u0 = default_initial_fields(grid)
    rhs, chemicals = _method_of_lines(p, grid)
    times = np.linspace(0.0, T, 21)
    ref = integrate(rhs, np.concatenate([f.values for f in u0]), T, rtol=1e-12, atol=1e-14,
                    t_eval=times)
    rates = []
    for y in ref.states:
        g = rhs(y)
        delta = 1e-6 / np.abs(g).max()
        gg = (rhs(y + delta * g) - rhs(y - delta * g)) / (2 * delta)
        rates.append(np.abs(gg).max() / np.abs(g).max())
    lam_rate = max(rates)
    u_ref = ref.states[-1].reshape(3, grid.n)
    exact = np.concatenate([u_ref, chemicals(u_ref)])
    steps = [N0 * 2**k for k in range(4)]
    errors = [np.abs(run_limit(*u0, T, p, [0.0, T], dt=T / N).values[-1] - exact).max()
              for N in steps]
    for N, coarse, fine in zip(steps, errors, errors[1:]):
        assert abs(coarse / fine - 2.0) <= 10 * lam_rate * T / N, (N, errors)


def test_limit_run_elliptic_consistency_everywhere():
    grid = make_grid(1.0, 32)
    u10, u20, u30 = default_initial_fields(grid)
    traj = run_limit(u10, u20, u30, 1.0, P, np.linspace(0, 1, 9))
    ops = [
        HelmholtzOperator(P.lambda1, P.mu1, grid),
        HelmholtzOperator(P.lambda2, P.mu2, grid),
        HelmholtzOperator(P.lambda3, P.mu3, grid),
    ]
    zetas = (P.zeta1, P.zeta2, P.zeta3)
    for x in traj.values:
        for i, (op, zeta) in enumerate(zip(ops, zetas)):
            res = op.apply(x[3 + i]) - zeta * x[i]
            assert norm_l2(Field(res, grid)) <= 1e-9


def test_limit_constant_predator_resolvent():
    grid = make_grid(1.0, 16)
    c = 0.8
    u10 = Field.constant(grid, 1.0)
    u20 = Field.constant(grid, 1.0)
    u30 = Field.constant(grid, c)
    traj = run_limit(u10, u20, u30, 0.0, P)
    assert np.max(np.abs(traj.values[0, 5] - c * P.zeta3 / P.mu3)) <= 1e-10


def test_limit_initial_v3_matches_truncated_semigroup_integral():
    from fastsignal.grid import mode_eigenvalues

    grid = make_grid(1.0, 32)
    u10, u20, u30 = default_initial_fields(grid)
    traj = run_limit(u10, u20, u30, 0.0, P)
    v30 = traj.values[0, 5]
    b = P.mu3 - P.lambda3 * mode_eigenvalues(grid)
    for S in (20.0, 400.0):
        coeffs = to_modes(P.zeta3 * u30.values) * (-np.expm1(-b * S)) / b
        truncated = from_modes(coeffs)
        gap = norm_l2(Field(v30 - truncated, grid))
        assert gap <= np.exp(-P.mu3 * S) / P.mu3 * norm_l2(u30) + 1e-9


def test_eps_limit_agreement_monotone_in_eps():
    grid = make_grid(1.0, 64)
    u10, u20, u30 = default_initial_fields(grid)
    from fastsignal.analysis import manifold_projection

    v30 = manifold_projection(u30, P)
    T = 0.5
    times = np.linspace(0.0, T, 9)
    dt = 4e-4
    lim = run_limit(u10, u20, u30, T, P, times, dt=dt)
    sups = []
    for eps in 10.0 ** -np.arange(1, 8):
        te = run_eps(u10, u20, u30, v30, eps, T, P, times, dt=dt)
        comp = compare_trajectories(te, lim)
        sups.append(max(comp.err_u1, comp.err_u2, comp.err_u3))
    floor = 1e-9
    for a, b in zip(sups, sups[1:]):
        assert b <= a * 1.05 or max(a, b) <= floor


@settings(max_examples=12, deadline=None)
@given(n=st.integers(4, 32), cfl=st.floats(0.2, 0.45),
       mode=st.sampled_from(["mixed", "fully_parabolic"]),
       gamma=st.sampled_from(["on_manifold", 0.5]), eps=st.floats(1e-300, 1e-30))
@example(n=32, cfl=0.45, mode="fully_parabolic", gamma="on_manifold", eps=1e-300)
@example(n=32, cfl=0.2, mode="mixed", gamma=0.5, eps=1e-30)
def test_eps_member_at_vanishing_eps_is_its_limit_member(n, cfl, mode, gamma, eps):
    """Asymptotic preservation: at a fixed stable step, an eps member with eps
    in [1e-300, 1e-30] steps as its limit member does, to round-off.  As
    dt / eps grows, the exponential update of a chemical tends to the
    elliptic solve of the new source through its ramp term; without it, the
    update solves for the old source and lags the limit member by O(dt)."""
    grid = make_grid(1.0, n)
    u0 = default_initial_fields(grid)
    v30 = make_layer_data(u0[2], gamma, eps, P)
    dt = initial_stable_dt(*u0, v30, P, cfl)
    a, b = run_batch(u0, [v30, None], [eps, None], 0.5, P, np.linspace(0.0, 0.5, 5),
                     dt=dt, chemical_mode=mode)
    # each component over all snapshots, within 64 units of round-off of its
    # largest value (at most 19.2 units over 400 draws)
    gap = np.max(np.abs(a.values - b.values), axis=(0, 2))
    assert np.all(gap <= 64 * 2.0**-52 * np.max(np.abs(b.values), axis=(0, 2)))


def test_fixed_step_layer_error_scales_like_layer_size():
    """At a fixed step, which does not resolve the initial layer, the u1 error
    of gamma = 0.5 data is eps**gamma times one constant: err_u1 / eps**0.5
    agrees to 0.1 % at eps = 1e-8, 1e-12 and 1e-16 (5e-5 measured)."""
    grid = make_grid(1.0, 32)
    u0 = default_initial_fields(grid)
    eps = [1e-8, 1e-12, 1e-16]
    v30s = [make_layer_data(u0[2], 0.5, e, P) for e in eps]
    dt = initial_stable_dt(*u0, v30s[0], P, 0.45)
    *runs, limit = run_batch(u0, [*v30s, None], [*eps, None], 1.0, P, np.linspace(0.0, 1.0, 9),
                             dt=dt)
    scaled = [compare_trajectories(a, limit).err_u1 / e**0.5 for a, e in zip(runs, eps)]
    assert max(scaled) <= 1.001 * min(scaled)


def test_fully_parabolic_mode_runs_and_matches_ode():
    grid = make_grid(1.0, 16)
    c = (1.0, 1.0, 0.5)
    u = [Field.constant(grid, ci) for ci in c]
    v30 = Field.constant(grid, c[2] * P.zeta3 / P.mu3)
    times = np.linspace(0.0, 5.0, 11)
    traj = run_eps(*u, v30, 1e-3, 5.0, P, times, dt=1e-3,
                   chemical_mode="fully_parabolic")
    ref = integrate(lambda y: ode_rhs_3pop(y, P), np.array(c), 5.0,
                    rtol=1e-12, atol=1e-14, t_eval=times)
    assert np.max(np.abs(traj.spatial_means() - ref.states)) <= 1e-6


def _assert_memory_flat(run, T):
    """run(T, output_times) -> trajectories: a run ten times longer, with the
    same snapshot count, peaks at the same traced memory."""
    def traced_peak(T):
        tracemalloc.start()
        try:
            trajs = run(T, np.linspace(0.0, T, 5))
            return tracemalloc.get_traced_memory()[1], trajs[0].n_steps
        finally:
            tracemalloc.stop()

    run(0.01, None)  # fill the solver caches outside the trace
    short_peak, short_steps = traced_peak(T)
    long_peak, long_steps = traced_peak(10 * T)
    assert long_steps >= 9 * short_steps
    # per-step records of ~300 B/step would add ~0.5-1.3 MB here
    assert long_peak - short_peak <= 32 * 1024


def test_run_memory_does_not_grow_with_step_count():
    """Nothing is kept per step."""
    u0 = default_initial_fields(make_grid(1.0, 16))
    _assert_memory_flat(lambda T, times: [run_limit(*u0, T, P, times, dt=1e-3)], 0.5)


def test_per_member_dt_batch_memory_does_not_grow_with_step_count():
    """Nor for a layer-study style batch whose members step by their own dt,
    one subset at a time."""
    u0 = default_initial_fields(make_grid(1.0, 16))
    v30s = [make_layer_data(u0[2], 0.5, e, P) for e in (1e-1, 1e-2)]
    _assert_memory_flat(lambda T, times: run_batch(
        u0, [*v30s, None], [1e-1, 1e-2, None], T, P, times, dt=[2e-3, 1e-3, 2e-3]), 0.2)


def test_fixed_dt_above_stability_bound_raises():
    grid = make_grid(1.0, 64)
    u10, u20, u30 = default_initial_fields(grid)
    v30 = Field.constant(grid, 0.5 / P.mu3)
    with pytest.raises(StabilityError):
        run_eps(u10, u20, u30, v30, 1e-3, 0.1, P, np.array([0.0, 0.1]), dt=1.0)


def test_step_too_small_to_reach_output_raises():
    # each step passes the finite-and-positive and stability checks but is
    # below half an ulp of the output time: unchecked, these runs never return
    grid = make_grid(1.0, 8)
    u10, u20, u30 = default_initial_fields(grid)
    v30 = Field.constant(grid, 1.0)
    with pytest.raises(StabilityError, match=r"step 1\.000e-320 of the limit run at t=0"):
        run_limit(u10, u20, u30, 0.01, P, dt=1e-320)
    with pytest.raises(StabilityError, match=r"step 1\.000e-320 of the eps=0\.001 run"):
        run_eps(u10, u20, u30, v30, 1e-3, 0.01, P, dt=1e-320)
    with pytest.raises(StabilityError, match="too small to reach the output time"):
        run_eps(u10, u20, u30, v30, 1e-3, 0.01, P, cfl=1e-300)


def test_blow_up_detection():
    grid = make_grid(1.0, 16)
    s = make_homogeneous_state(grid, c=(1e200, 1.0, 1.0))
    # overflow in the quadratic reaction terms must be reported, not returned
    with pytest.raises(BlowUpError):
        step(s, P, 1e-3)


def test_run_rejects_bad_inputs():
    grid = make_grid(1.0, 16)
    u10, u20, u30 = default_initial_fields(grid)
    v30 = Field.constant(grid, 1.0)
    with pytest.raises(ValueError):
        run_eps(u10, u20, u30, v30, 0.0, 1.0, P)
    with pytest.raises(ValueError):
        run_eps(u10, u20, u30, v30, 1e-3, -1.0, P)
    neg = Field(u10.values - 10.0, grid)
    with pytest.raises(ValueError):
        run_limit(neg, u20, u30, 1.0, P)
    other = Field.constant(make_grid(1.0, 8), 1.0)
    with pytest.raises(ValueError):
        run_eps(u10, u20, u30, other, 1e-3, 1.0, P)
    # a nan horizon used to give a 0-step run, an infinite one a StabilityError
    for T in (np.nan, np.inf):
        with pytest.raises(ValueError, match="T must be finite and non-negative"):
            run_eps(u10, u20, u30, v30, 1e-3, T, P)
        with pytest.raises(ValueError, match="T must be finite and non-negative"):
            run_limit(u10, u20, u30, T, P)
    # a nan output time used to label the t = 0.02 snapshot
    for times in ([0.02, np.nan], [0.02, np.inf], [-np.inf, 0.02]):
        with pytest.raises(ValueError, match="output times"):
            run_limit(u10, u20, u30, 0.05, P, times)


@pytest.mark.parametrize("eps", [0.0, -1e-3, np.nan, np.inf])
def test_every_eps_entry_point_rejects_bad_eps(eps):
    """A nan eps used to end in a BlowUpError and an infinite one to freeze v3:
    either is bad input, rejected before any step."""
    from fastsignal.analysis import rate_study

    grid = make_grid(1.0, 16)
    u10, u20, u30 = default_initial_fields(grid)
    v30 = Field.constant(grid, 1.0)
    calls = [
        lambda: run_eps(u10, u20, u30, v30, eps, 0.01, P),
        lambda: rate_study(u10, u20, u30, "on_manifold", [1e-2, 1e-3, eps], 0.01, P),
        lambda: manifold_distance_study(u10, u20, u30, 1.0, [1e-2, eps], 0.01, P, None),
        lambda: _Stepper(grid, P, eps),
        lambda: _Stepper(grid, P, eps=[1e-3, eps, None]),
        lambda: make_layer_data(u30, 1.0, eps, P),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="eps"):
            call()


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan])
def test_fixed_dt_must_be_finite_and_positive(dt):
    # a zero step never reaches T; a negative one steps backwards until it blows up
    grid = make_grid(1.0, 8)
    u10, u20, u30 = default_initial_fields(grid)
    v30 = Field.constant(grid, 1.0)
    with pytest.raises(ValueError, match="finite and positive"):
        run_eps(u10, u20, u30, v30, 1e-3, 0.1, P, dt=dt)
    with pytest.raises(ValueError, match="finite and positive"):
        run_limit(u10, u20, u30, 0.1, P, dt=dt)
    # per member: one bad step among good ones is enough
    with pytest.raises(ValueError, match="finite and positive"):
        run_batch((u10, u20, u30), [v30, None], [1e-3, None], 0.1, P, dt=[1e-4, dt])


def test_oscillatory_regime_homogeneous_long_run():
    """Homogeneous predator-prey cycling on the coarse grid: spatial means
    must oscillate as detected on the corresponding ODE trajectory."""
    from fastsignal.ode import OdeTrajectory, detect_oscillation

    posc = P.with_updates(eta1=0.2, eta2=0.2, m1=0.6)
    grid = make_grid(1.0, 8)
    c = (1.0, 1.0, 0.5)
    u = [Field.constant(grid, ci) for ci in c]
    v30 = Field.constant(grid, c[2] * posc.zeta3 / posc.mu3)
    # the cycle period is ~60 and the detector keeps the second half of the
    # horizon, so run to 700 to collect 5 peaks
    T = 700.0
    times = np.linspace(0.0, T, 1401)
    traj = run_eps(*u, v30, 1e-3, T, posc, times)
    means = traj.spatial_means()
    rec = detect_oscillation(OdeTrajectory(traj.times, means, 0, 0))
    assert rec.detected
    assert rec.period is not None and rec.period > 0


def test_fully_parabolic_rate_slopes_match_default_mode():
    """The all-parabolic variant must show the same eps->0 rates."""
    from fastsignal.analysis import rate_study

    grid = make_grid(1.0, 32)
    u10, u20, u30 = default_initial_fields(grid)
    rep = rate_study(u10, u20, u30, "on_manifold", [1e-2, 1e-3, 1e-4], 0.5, P,
                     n_outputs=9, chemical_mode="fully_parabolic")
    for name in ("err_u1", "err_u2", "err_u3", "err_v3_h1"):
        slope, _, _ = rep.slopes[name]
        assert abs(slope - 1.0) <= 0.15, (name, slope)


@pytest.mark.parametrize("mode", ["mixed", "fully_parabolic"])
def test_batch_matches_separate_runs(mode):
    """Three eps members and one limit member stepped as one batch give what
    separate run_eps/run_limit calls give on the same fixed schedule."""
    grid = make_grid(1.0, 32)
    u0 = default_initial_fields(grid)
    eps_list = (1e-1, 1e-2, 1e-3)
    v30s = [make_layer_data(u0[2], 0.5, e, P) for e in eps_list]
    T, dt = 0.3, 7e-4
    times = np.linspace(0.0, T, 7)
    batch = run_batch(u0, [*v30s, None], [*eps_list, None], T, P, times, dt=dt,
                      chemical_mode=mode)
    separate = [run_eps(*u0, v30, e, T, P, times, dt=dt, chemical_mode=mode)
                for e, v30 in zip(eps_list, v30s)]
    separate.append(run_limit(*u0, T, P, times, dt=dt))
    for got, ref in zip(batch, separate):
        assert got.eps == ref.eps
        assert got.n_steps == ref.n_steps
        assert np.array_equal(got.clipped_mass, ref.clipped_mass)
        assert got.max_balance_residual == ref.max_balance_residual
        # each component of each snapshot
        for a, b in zip(got.values.reshape(-1, grid.n), ref.values.reshape(-1, grid.n)):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_batch_member_over_its_cap_raises():
    grid = make_grid(1.0, 32)
    u0 = default_initial_fields(grid)
    calm = make_layer_data(u0[2], "on_manifold", 1e-2, P)
    steep = Field(calm.values + 20.0 * (1.0 + np.cos(3 * np.pi * grid.centers)), grid)
    cap_calm = initial_stable_dt(*u0, calm, P, 1.0)
    cap_steep = initial_stable_dt(*u0, steep, P, 1.0)
    assert cap_steep < 0.5 * cap_calm
    members, data, times = [1e-2, 1e-3, None], [calm, steep, None], [0.0, 0.1]
    shared = np.sqrt(cap_calm * cap_steep)
    with pytest.raises(StabilityError, match="eps=0.001 run"):
        run_batch(u0, data, members, 0.1, P, times, dt=shared)
    # per-member steps: only the member over its own cap is named
    dts = [1.5 * cap_calm, 0.5 * cap_steep, 0.5 * cap_calm]
    with pytest.raises(StabilityError, match=r"of the eps=0\.01 run"):
        run_batch(u0, data, members, 0.1, P, times, dt=dts)
    dts = [0.5 * cap_calm, 0.5 * cap_steep, 0.5 * cap_calm]
    trajs = run_batch(u0, data, members, 1e-3, P, [0.0, 1e-3], dt=dts)
    assert [t.n_steps for t in trajs] == [
        int(np.ceil(1e-3 / (0.5 * c) - 1e-9)) for c in (cap_calm, cap_steep, cap_calm)]


def _normalise_output_times_reference(T, output_times):
    """_normalise_output_times as it was, deduplicating with np.unique."""
    if output_times is None:
        output_times = np.linspace(0.0, T, 64) if T > 0 else np.array([0.0])
    times = np.unique(np.asarray(output_times, dtype=float))
    if (times.size == 0 or not np.isfinite(times).all() or times[0] < 0
            or times[-1] > T + 1e-12 * max(T, 1.0)):
        raise ValueError("output times must lie inside [0, T]")
    if times[0] > 0.0:
        times = np.concatenate([[0.0], times])
    return times


@settings(max_examples=200, deadline=None)
@given(T=st.floats(0.0, 10.0), data=st.data())
def test_output_times_are_np_unique_of_the_request(T, data):
    """Sorting plus a neighbour mask is np.unique's dedupe, -0.0 and 0.0
    included; nan, inf, negative times and times past T are rejected."""
    inside = st.one_of(st.sampled_from([0.0, -0.0, T]), st.floats(0.0, T))
    outside = st.sampled_from([np.nan, np.inf, -np.inf, -1e-3, T + 1.0])
    request = data.draw(st.lists(st.one_of(inside, outside) if data.draw(st.booleans())
                                 else inside, max_size=12))
    request += data.draw(st.lists(st.sampled_from(request), max_size=4)) if request else []
    request = np.reshape(request, data.draw(st.sampled_from([(-1,), (1, -1)])))
    if not all(0.0 <= x <= T for x in request.ravel().tolist()) or not request.size:
        with pytest.raises(ValueError, match=r"output times must lie inside \[0, T\]"):
            _normalise_output_times(T, request)
        return
    want = _normalise_output_times_reference(T, request)
    assert _normalise_output_times(T, request).tobytes() == want.tobytes()


def _step_reference(stepper, t, u, v, dt, members):
    """_Stepper.step as it was before it took v's face difference and the
    species' mass from its caller: every step sums the old species and scans
    the new ones for non-finite values."""
    per_member = isinstance(dt, np.ndarray)
    dt_col = dt[:, None] if per_member else dt
    dx = stepper.grid.dx
    mass_old = u.sum(-1) * dx
    planes = _species_planes(stepper.p, len(u), stepper.grid.n, dx)
    with np.errstate(over="ignore", invalid="ignore"):
        new_u, reaction_rate = sim_eps._heun_species(
            u, v, dt_col[..., None] if per_member else dt, planes)
    stepper._check_finite(new_u, "u", t, dt, members)
    mass_pre = new_u.sum(-1) * dx
    scale = np.maximum(np.abs(mass_old), 1.0)
    residual = np.max(np.abs((mass_pre - mass_old) / dt_col - reaction_rate) / scale, axis=-1)
    neg = new_u < 0.0
    if neg.any():
        ids = np.arange(len(stepper.eps))[members]
        for b, i in zip(*np.nonzero(neg.any(-1))):
            stepper.clipped[ids[b], i] += -dx * new_u[b, i][neg[b, i]].sum()
        new_u = np.where(neg, 0.0, new_u)
    new_v = stepper.advance_chemicals(u, new_u, v, dt, members)
    stepper._check_finite(new_v, "v", t, dt, members)
    return new_u, new_v, residual


def _integrate_reference(stepper, u, v, T, output_times, *, cfl, dt_fixed=None):
    """_integrate as it was: each member's bound checked on its own at every
    fixed-schedule step, and every step through _step_reference."""
    times = _normalise_output_times_reference(T, output_times)
    dx = stepper.grid.dx
    p = stepper.p
    n_members = u.shape[0]
    if dt_fixed is not None:
        dt_fixed = np.broadcast_to(np.asarray(dt_fixed, dtype=float), (n_members,)).tolist()
    snaps = np.empty((n_members, times.size, 6, u.shape[-1]))
    snaps[:, 0, :3], snaps[:, 0, 3:] = u, v
    t = [0.0] * n_members
    n_steps = [0] * n_members
    max_residual = [0.0] * n_members
    for k, target in enumerate(times[1:].tolist(), 1):
        while True:
            rows = [b for b in range(n_members) if t[b] < target]
            if not rows:
                break
            members = slice(None) if len(rows) == n_members else np.array(rows)
            ua, va = u[members], v[members]
            if dt_fixed is None:
                nominal = _stable_dt_values(ua, va, p, dx, cfl).tolist()
            else:
                nominal = [dt_fixed[b] for b in rows]
                cap = _stable_dt_values(ua, va, p, dx, 1.0).tolist()
                for b, h, c in zip(rows, nominal, cap):
                    if h > c * (1.0 + 1e-9):
                        raise StabilityError(
                            f"fixed dt {h:.3e} exceeds the stability bound {c:.3e} "
                            f"of the {stepper.member_label(b)} at t={t[b]:.6g}")
            for b, h in zip(rows, nominal):
                if target + h == target:
                    raise StabilityError(
                        f"step {h:.3e} of the {stepper.member_label(b)} at t={t[b]:.6g} "
                        f"is too small to reach the output time {target:.6g}")
            dts = [target - t[b] if target - t[b] <= h * (1.0 + 1e-9) else h
                   for b, h in zip(rows, nominal)]
            step_dt = dts[0] if dts.count(dts[0]) == len(dts) else np.array(dts)
            new_u, new_v, residual = _step_reference(stepper, [t[b] for b in rows], ua, va,
                                                     step_dt, members)
            if isinstance(members, slice):
                u, v = new_u, new_v
            else:
                u[members], v[members] = new_u, new_v
            for b, h, r in zip(rows, dts, residual.tolist()):
                t[b] += h
                n_steps[b] += 1
                max_residual[b] = max(max_residual[b], r)
        t = [target] * n_members
        snaps[:, k, :3], snaps[:, k, 3:] = u, v
    return [(times, snaps[b], stepper.clipped[b].copy(), n_steps[b], max_residual[b])
            for b in range(n_members)]


@st.composite
def step_loop_cases(draw):
    """A batch at n = 4-24 from the default species data, with on-manifold or
    gamma = 0.5 layer data, on one step schedule: each member's own stable
    step, one fixed dt for all (up to 1.2 times the smallest initial bound,
    so a member may be over its cap), or one fixed dt per member; a horizon
    of 0 or 1-15 of the smallest step and up to four output times.  A fault
    may replace one entry of one species update: a negative value, which
    the step clips, or a non-finite one, which it reports; or one entry of
    one chemical update by a non-finite value, which it reports too."""
    kind = draw(st.sampled_from(["adaptive", "shared", "per_member"]))
    size = 1 if kind == "adaptive" and draw(st.booleans()) else draw(st.integers(1, 5))
    members = draw(st.lists(st.sampled_from([None, 1e-1, 1e-2, 1e-3]),
                            min_size=size, max_size=size))
    n = draw(st.integers(4, 24))
    grid = make_grid(1.0, n)
    u0 = default_initial_fields(grid)
    gamma = draw(st.sampled_from(["on_manifold", 0.5]))
    data = [None if e is None else make_layer_data(u0[2], gamma, e, P)
            for e in members]
    caps = [initial_stable_dt(*u0, v30 if v30 is not None else Field(
                _Stepper(grid, P).solve_elliptic(u0[2].values, 2), grid), P, 1.0)
            for v30 in data]
    cfl = draw(st.sampled_from([0.9, 0.45]))
    if kind == "adaptive":
        dt, smallest = None, cfl * min(caps)
    elif kind == "shared":
        dt = draw(st.floats(0.2, 1.2)) * min(caps)
        smallest = dt
    else:
        dt = [draw(st.floats(0.2, 1.1)) * c for c in caps]
        smallest = min(dt)
    T = draw(st.one_of(st.just(0.0), st.floats(1.0, 15.0))) * smallest
    times = draw(st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)))
    times = None if times is None else [T * f for f in times]
    at = (st.integers(0, 3), st.integers(0, 4), st.integers(0, 2), st.integers(0, n - 1))
    fault = draw(st.one_of(
        st.none(),
        st.tuples(st.just("species"),
                  st.sampled_from([-1e-300, -1e-3, -1e-3, np.nan, np.inf]), *at),
        st.tuples(st.just("chemicals"), st.sampled_from([np.nan, np.inf, -np.inf]), *at)))
    return grid, members, u0, data, T, times, cfl, dt, fault


def _faulty(update, fault):
    """update (_heun_species or advance_chemicals), with entry (b, i, j) of
    the (B, 3, n) array it returns set to value at its call-th call.  The
    next cell takes up the difference, so that a negative value leaves the
    step's mass change as it was and what the clip then removes shows in the
    next step's residual."""
    value, call, b, i, j = fault
    calls = [0]

    def wrapped(*args, **kwargs):
        out = update(*args, **kwargs)
        if calls[0] == call:
            new = out[0] if isinstance(out, tuple) else out
            row = new[min(b, len(new) - 1), i]
            row[(j + 1) % row.size] += row[j] - value
            row[j] = value
        calls[0] += 1
        return out

    return wrapped


def _assert_step_loop_equals_reference(grid, members, u0, data, T, times, cfl, dt, fault):
    """_integrate and _integrate_reference from the same batch give bitwise
    the same snapshots, step counts, residuals and clipped mass, or the same
    StabilityError or BlowUpError."""

    def outcome(loop):
        stepper = _Stepper(grid, P, eps=members)
        u = np.repeat(np.stack([f.values for f in u0])[None], len(members), axis=0)
        v = np.empty_like(u)
        for i in range(3):
            v[:, i] = stepper.solve_elliptic(u[:, i], i)
        for b, v30 in enumerate(data):
            if v30 is not None:
                v[b, 2] = v30.values
        heun = sim_eps._heun_species
        if fault is not None and fault[0] == "species":
            sim_eps._heun_species = _faulty(heun, fault[1:])
        elif fault is not None:
            stepper.advance_chemicals = _faulty(stepper.advance_chemicals, fault[1:])
        try:
            return loop(stepper, u, v, T, times, cfl=cfl, dt_fixed=dt)
        except (StabilityError, BlowUpError) as err:
            return type(err), str(err)
        finally:
            sim_eps._heun_species = heun

    want = outcome(_integrate_reference)
    got = outcome(_integrate)
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got) == len(want)
    for traj, (times_ref, values, clipped, n_steps, residual) in zip(got, want):
        assert traj.times.tobytes() == times_ref.tobytes()
        assert traj.values.tobytes() == values.tobytes()
        assert traj.clipped_mass.tobytes() == clipped.tobytes()
        assert traj.n_steps == n_steps
        assert traj.max_balance_residual == residual


def _blow_up_case(fault):
    """An adaptive eps = 1e-2 run at n = 8 whose second step has fault."""
    grid = make_grid(1.0, 8)
    return grid, [1e-2], default_initial_fields(grid), [None], 0.01, None, 0.9, None, fault


@settings(max_examples=150, deadline=None)
@given(step_loop_cases())
@example(_blow_up_case(("species", np.nan, 1, 0, 0, 3)))
@example(_blow_up_case(("chemicals", -np.inf, 1, 0, 2, 3)))
def test_step_loop_equals_per_step_reference(case):
    """_integrate, with its shared face difference, batch-wide cap check and
    carried mass, is bitwise the loop that recomputed each per step."""
    _assert_step_loop_equals_reference(*case)


def test_step_loop_sums_the_species_again_after_a_clip():
    """On-manifold style: four eps members and a limit member on one shared
    dt, whose second step clips mass that the next step's residual shows."""
    grid = make_grid(1.0, 16)
    u0 = default_initial_fields(grid)
    members = [1e-1, 1e-2, 1e-3, 1e-4, None]
    data = [None if e is None else make_layer_data(u0[2], "on_manifold", e, P)
            for e in members]
    _assert_step_loop_equals_reference(grid, members, u0, data, 1e-3, [0.0, 5e-4, 1e-3],
                                       0.9, 1e-4, ("species", -1e-3, 1, 0, 0, 5))


@pytest.mark.parametrize("update", ["_heun_species", "advance_chemicals"])
def test_finite_fields_whose_sum_overflows_do_not_raise(monkeypatch, update):
    """The step screens its species and chemicals for non-finite values with
    one sum each; a sum that overflows on finite values is no blow-up."""
    grid = make_grid(1.0, 8)
    stepper = _Stepper(grid, P, 1e-3)
    u = np.stack([f.values for f in default_initial_fields(grid)])[None]
    v = np.stack([stepper.solve_elliptic(u[:, i], i) for i in range(3)], axis=1)
    huge = np.full_like(u, 1e308)
    if update == "_heun_species":
        monkeypatch.setattr(sim_eps, update, lambda u, *args: (huge, np.zeros((1, 3))))
    monkeypatch.setattr(stepper, "advance_chemicals", lambda *args: huge)
    new_u, new_v, residual = stepper.step(0.0, u, v, 1e-4)
    assert new_v is huge
    assert (new_u is huge) == (update == "_heun_species")
    assert np.isinf(residual).all() == (update == "_heun_species")


@st.composite
def species_batches(draw):
    """Members with random species and slow-chemical data; None marks a limit member."""
    b = draw(st.integers(1, 4))
    n = draw(st.integers(4, 48))
    elements = st.floats(0.0, 3.0, allow_subnormal=False)
    u = draw(arrays(float, (b, 3, n), elements=elements))
    v3 = draw(arrays(float, (b, n), elements=st.floats(0.0, 30.0, allow_subnormal=False)))
    eps = draw(st.lists(st.one_of(st.none(), st.floats(1e-5, 1.0)), min_size=b, max_size=b))
    return u, v3, eps


@settings(max_examples=40, deadline=None)
@given(species_batches())
def test_batched_step_under_stable_dt_keeps_species_non_negative(batch):
    u, v3, eps = batch
    grid = make_grid(1.0, u.shape[-1])
    st_batch = _Stepper(grid, P, eps=eps)
    v = np.empty_like(u)
    v[:, 0] = st_batch.solve_elliptic(u[:, 0], 0)
    v[:, 1] = st_batch.solve_elliptic(u[:, 1], 1)
    v[:, 2] = v3
    dt = float(_stable_dt_values(u, v, P, grid.dx, 0.9).min())
    new_u, _, _ = st_batch.step(0.0, u, v, dt)
    # nothing was clipped, so positivity holds without the clip
    assert np.all(st_batch.clipped == 0.0)
    assert np.all(new_u >= 0.0)


@settings(max_examples=40, deadline=None)
@given(species_batches(), st.sampled_from(["mixed", "fully_parabolic"]), st.data())
def test_per_member_dt_column_equals_one_member_steps(batch, mode, data):
    """One step with a dt column is bitwise the B steps of its members alone."""
    u, v3, eps = batch
    assume(mode == "mixed" or any(e is not None for e in eps))
    grid = make_grid(1.0, u.shape[-1])
    st_batch = _Stepper(grid, P, eps=eps, chemical_mode=mode)
    v = np.empty_like(u)
    v[:, 0] = st_batch.solve_elliptic(u[:, 0], 0)
    v[:, 1] = st_batch.solve_elliptic(u[:, 1], 1)
    v[:, 2] = v3
    fractions = data.draw(arrays(float, u.shape[0], elements=st.floats(0.05, 1.0),
                                 unique=True))
    dt = _stable_dt_values(u, v, P, grid.dx, 0.9) * fractions
    t = data.draw(arrays(float, u.shape[0], elements=st.floats(0.0, 10.0)))
    new_u, new_v, residual = st_batch.step(t, u, v, dt)
    for b, e in enumerate(eps):
        # a lone limit member has no relaxation parameter to be parabolic in
        one = _Stepper(grid, P, eps=e, chemical_mode=mode if e is not None else "mixed")
        ref_u, ref_v, ref_res = one.step(t[b], u[b], v[b], float(dt[b]))
        assert np.array_equal(new_u[b], ref_u[0])
        assert np.array_equal(new_v[b], ref_v[0])
        assert residual[b] == ref_res[0]
        assert np.array_equal(st_batch.clipped[b], one.clipped[0])


def _stable_dt_array_formula(u, v, p, dx, cfl):
    """The bound on (B,) arrays, as the stepper evaluated it before it moved
    to Python floats."""
    g = np.abs(np.diff(np.asarray(v, dtype=float))).max(-1) / dx
    g1, g2, g3 = g[..., 0], g[..., 1], g[..., 2]
    m = np.asarray(u, dtype=float).max(-1)
    r1, r2, r3 = _reaction_rate_bounds(p, m[..., 0], m[..., 1], m[..., 2])
    den1 = 2.0 * p.d1 + 2.0 * p.chi1 * g3 * dx + dx * dx * r1
    den2 = 2.0 * p.d2 + 2.0 * p.chi2 * g3 * dx + dx * dx * r2
    den3 = 2.0 * p.d3 + 2.0 * (p.chi31 * g1 + p.chi32 * g2) * dx + dx * dx * r3
    return cfl * dx * dx / np.maximum(np.maximum(den1, den2), den3)


@st.composite
def model_params(draw):
    """ModelParams with every coefficient drawn; the positive ones stay positive."""
    return ModelParams(**{
        name: draw(st.floats(1e-3 if name in _POSITIVE else 0.0, 5.0))
        for name in ModelParams.__dataclass_fields__
    })


@settings(max_examples=200, deadline=None)
@given(p=model_params(), b=st.integers(1, 8), n=st.integers(4, 64), single=st.booleans(),
       cfl=st.floats(1e-3, 1.0), data=st.data())
def test_stable_dt_values_equals_array_formula(p, b, n, single, cfl, data):
    """The per-member float bound is bitwise the (B,) array formula."""
    shape = (3, n) if single else (b, 3, n)
    u = data.draw(arrays(float, shape, elements=st.floats(0.0, 10.0)))
    v = data.draw(arrays(float, shape, elements=st.floats(0.0, 100.0)))
    dx = 1.0 / n
    got = _stable_dt_values(u, v, p, dx, cfl)
    want = _stable_dt_array_formula(u, v, p, dx, cfl)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # the bound from v's face difference is the bound from v
    from_dv = _stable_dt_values(u, None, p, dx, cfl, v[..., 1:] - v[..., :-1])
    assert type(from_dv) is type(want)
    assert np.asarray(from_dv).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=200, deadline=None)
@given(p=model_params(), b=st.integers(1, 8), n=st.integers(4, 64), cfl=st.floats(1e-3, 1.0),
       data=st.data())
def test_batch_wide_stable_dt_is_no_members_bound_above(p, b, n, cfl, data):
    """The one bound at the batch's largest densities and differences is at
    most every member's own bound, on non-negative states."""
    u = data.draw(arrays(float, (b, 3, n), elements=st.floats(0.0, 10.0)))
    v = data.draw(arrays(float, (b, 3, n), elements=st.floats(0.0, 100.0)))
    dx = 1.0 / n
    floor = _stable_dt_values(u, v, p, dx, cfl, batch_wide=True)
    assert np.ndim(floor) == 0
    assert (floor <= _stable_dt_values(u, v, p, dx, cfl)).all()
    dv = v[..., 1:] - v[..., :-1]
    assert _stable_dt_values(u, None, p, dx, cfl, dv, batch_wide=True) == floor


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 32), eps=st.lists(st.one_of(st.none(), st.floats(1e-5, 1.0)),
                                           min_size=1, max_size=5),
       lam=st.lists(st.sampled_from([0.5, 1.0]), min_size=3, max_size=3),
       mu=st.lists(st.sampled_from([0.1, 0.4]), min_size=3, max_size=3),
       zeta=st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3),
       mode=st.sampled_from(["mixed", "fully_parabolic"]), data=st.data())
def test_grouped_chemical_update_equals_per_chemical_update(n, eps, lam, mu, zeta, mode,
                                                           data):
    """advance_chemicals, one transform pair for every chemical of the
    batch, is bitwise the per-chemical solve_elliptic and per-row
    _exp_ramp_values updates of any member set."""
    assume(mode == "mixed" or any(e is not None for e in eps))
    p = P.with_updates(lambda1=lam[0], lambda2=lam[1], lambda3=lam[2],
                       mu1=mu[0], mu2=mu[1], mu3=mu[2],
                       zeta1=zeta[0], zeta2=zeta[1], zeta3=zeta[2])
    grid = make_grid(1.0, n)
    kw = dict(eps=eps, chemical_mode=mode)
    subset = data.draw(st.lists(st.integers(0, len(eps) - 1), min_size=1, unique=True))
    members = slice(None) if data.draw(st.booleans()) else np.array(sorted(subset))
    ids = np.arange(len(eps))[members]
    u_old, u_new, v = (data.draw(arrays(float, (ids.size, 3, n), elements=st.floats(0.0, 3.0)))
                       for _ in range(3))
    dt = data.draw(st.one_of(st.floats(1e-6, 1e-2),
                             arrays(float, ids.size, elements=st.floats(1e-6, 1e-2))))

    ref = _Stepper(grid, p, **kw)
    want = np.empty_like(v)
    for i in range(3):
        elliptic = ref.elliptic[ids, i]
        rows = np.flatnonzero(elliptic)
        if rows.size:
            want[rows, i] = ref.solve_elliptic(u_new[rows, i], i)
        for r in np.flatnonzero(~elliptic):
            want[r, i] = _exp_ramp_values(lam[i], mu[i], eps[ids[r]],
                                          float(np.broadcast_to(dt, ids.shape)[r]), v[r, i],
                                          zeta[i] * u_old[r, i], zeta[i] * u_new[r, i], grid)
    stepper = _Stepper(grid, p, **kw)
    for _ in range(2):  # the second call reuses the cached layout and factors
        got = stepper.advance_chemicals(u_old, u_new, v, dt, members)
        assert got.tobytes() == want.tobytes()


def _chemotaxis_div_reference(u, v, chi, dx):
    """grid._chemotaxis_div as one function, as it was before the stepper
    merged it with diffusion."""
    g = (v[..., 1:] - v[..., :-1]) / dx
    cg = chi * g
    flux = np.maximum(cg, 0.0) * u[..., 1:] + np.minimum(cg, 0.0) * u[..., :-1]
    out = np.zeros(flux.shape[:-1] + u.shape[-1:])
    out[..., :-1] += flux
    out[..., 1:] -= flux
    out /= dx
    return out


def _kinetics_planes(x, p):
    return np.stack(kinetics(x[..., 0, :], x[..., 1, :], x[..., 2, :], p), axis=-2)


def _old_form_rhs(x, v, p, dx):
    """The stage right-hand side of a (B, 3, n) batch as the stepper evaluated
    it before the one-flux kernel: d * _laplacian plus the four drift
    divergences, species 3's second drift added after its first, plus kinetics."""
    f = _kinetics_planes(x, p)
    chi = np.array([[p.chi1], [p.chi2], [-p.chi31], [-p.chi32]])
    drift = _chemotaxis_div_reference(x[..., [0, 1, 2, 2], :], v[..., [2, 2, 0, 1], :],
                                      chi, dx)
    d = np.array([[p.d1], [p.d2], [p.d3]])
    r = d * _laplacian(x, dx) + drift[..., :3, :]
    r[..., 2, :] += drift[..., 3, :]
    r += f
    return r, f


def _one_flux_rhs_reference(x, v, p, dx):
    """The one-flux stage right-hand side of a (B, 3, n) batch, face by face.

    The flux through face j + 1/2 is a * x[j + 1] + bm * x[j], with
    a = max(g, 0) + d / dx**2 and bm = min(g, 0) - d / dx**2 over the
    species' drifts g = (chi / dx**2) * (w[j + 1] - w[j]) up its chemicals w;
    the predator's second drift is added last.  Cell j adds the flux through
    its right face to its reaction rate and then subtracts the flux through
    its left face."""
    f = _kinetics_planes(x, p)
    h = dx * dx
    chi = np.array([p.chi1, p.chi2, -p.chi31, -p.chi32]) / h
    d = np.array([p.d1, p.d2, p.d3]) / h
    n = x.shape[-1]
    fluxes = []
    for j in range(n - 1):
        g = chi * (v[..., j + 1] - v[..., j])[:, [2, 2, 0, 1]]
        a = np.maximum(g, 0.0)[:, :3] + d
        bm = np.minimum(g, 0.0)[:, :3] - d
        a[:, 2] += np.maximum(g[:, 3], 0.0)
        bm[:, 2] += np.minimum(g[:, 3], 0.0)
        fluxes.append(a * x[..., j + 1] + bm * x[..., j])
    r = f.copy()
    for j in range(n):
        if j < n - 1:
            r[..., j] += fluxes[j]
        if j > 0:
            r[..., j] -= fluxes[j - 1]
    return r, f


def _heun_stages(rhs, u, dt):
    """SSP-RK2 in the kernel's operation order: the stage-2 input y, both
    stage rates and both stage reaction rates."""
    r, fa = rhs(u)
    y = u + dt * r
    q, fb = rhs(y)
    return y, r, q, fa, fb


@st.composite
def params_with_zero_chi(draw):
    """model_params with each drift coefficient zeroed at random."""
    p = draw(model_params())
    zero = {k: 0.0 for k in ("chi1", "chi2", "chi31", "chi32") if draw(st.booleans())}
    return p.with_updates(**zero)


@st.composite
def heun_inputs(draw):
    """(p, u, v, dx, dt) of one species step: B 1-6, n 4-64, zero densities,
    and a float or (B, 1, 1) dt up to 1.0, far above the stable step, so
    the second stage sees negative densities."""
    p = draw(params_with_zero_chi())
    b, n = draw(st.integers(1, 6)), draw(st.integers(4, 64))
    u = draw(arrays(float, (b, 3, n), elements=st.one_of(
        st.just(0.0), st.floats(0.0, 3.0, allow_subnormal=False))))
    v = draw(arrays(float, (b, 3, n), elements=st.floats(0.0, 30.0)))
    step = st.floats(1e-6, 1.0, allow_subnormal=False)
    dt = draw(st.one_of(step, arrays(float, (b, 1, 1), elements=step)))
    return p, u, v, 1.0 / n, dt


@settings(max_examples=200, deadline=None)
@given(heun_inputs())
def test_heun_species_equals_batch_major_reference(inputs):
    """The species-major kernel is bitwise SSP-RK2 on the face-by-face
    one-flux right-hand side of the batch-major layout."""
    p, u, v, dx, dt = inputs
    b, _, n = u.shape
    with np.errstate(all="ignore"):
        y, r, q, fa, fb = _heun_stages(lambda x: _one_flux_rhs_reference(x, v, p, dx), u, dt)
        want_u = u + 0.5 * dt * (r + q)
        want_rate = dx * 0.5 * (fa.sum(-1) + fb.sum(-1))
        assume(np.isfinite(want_u).all() and np.isfinite(want_rate).all())
        got_u, got_rate = _heun_species(u, v, dt, _species_planes(p, b, n, dx))
    assert got_u.shape == want_u.shape and got_rate.shape == want_rate.shape
    assert got_u.tobytes() == want_u.tobytes()
    assert np.ascontiguousarray(got_rate).tobytes() == want_rate.tobytes()


def _gamma(k):
    unit = np.finfo(float).eps / 2
    return k * unit / (1 - k * unit)


def _term_magnitude(x, v, p, dx):
    """Per cell, the sum of |term| of the stage rate written as a sum of
    products of inputs: |f|, and for each of the cell's faces
    (d / dx**2 + sum |g| over the species' drifts) * (|x[j]| + |x[j + 1]|)."""
    h = dx * dx
    g = np.abs(np.array([[p.chi1], [p.chi2], [p.chi31], [p.chi32]])
               * np.diff(v, axis=-1)[..., [2, 2, 0, 1], :]) / h
    coef = np.array([[p.d1], [p.d2], [p.d3]]) / h + g[..., :3, :]
    coef[..., 2, :] += g[..., 3, :]
    face = coef * (np.abs(x[..., 1:]) + np.abs(x[..., :-1]))
    m = np.abs(_kinetics_planes(x, p))
    m[..., :-1] += face
    m[..., 1:] += face
    return m


@settings(max_examples=200, deadline=None)
@given(heun_inputs())
def test_heun_species_is_the_old_form_within_round_off(inputs):
    """The one-flux kernel is the old d * _laplacian + drift form up to
    round-off, at the stage inputs the kernel visits.

    Both forms evaluate the same real expression, a sum of products of the
    inputs (the computed chemical differences and dx among them), and f is
    bitwise the same planes in both.  Counting the roundings on the path of
    every term gives at most 9 in either form (the predator's second drift:
    chi / dx**2, its product with the difference, the sum into a, a * x, the
    face flux sum and the two cell updates; the old form's chain is as
    long), so each form is within gamma_9 * M of the exact value, where M is
    _term_magnitude; gamma_10 also covers M's own evaluation.  Underflow
    adds at most half the smallest subnormal per operation, of which each
    cell's evaluation has fewer than 64.  Hence the stage rates differ by at
    most E = 2 gamma_10 M + 64 * smallest_subnormal.  The combination
    u + (0.5 dt)(r + q) then rounds three more times: with u' = u / (1 - u)
    the outputs differ by at most
    0.5 dt (E_r + E_q + u' (|s| + |s_old|)) + u' (|t| + |t_old|)
    + u' (|new| + |new_old|), s = r + q, t = 0.5 dt * s.

    The stage-2 input is shared: the old form's own second stage would
    start from its own y, and far above the stable step the stage map
    amplifies that difference by dt times a kinetics Jacobian at negative
    densities, which has no bound of this kind."""
    p, u, v, dx, dt = inputs
    b, _, n = u.shape
    with np.errstate(all="ignore"):
        got_u, _ = _heun_species(u, v, dt, _species_planes(p, b, n, dx))
        y, r, q, _, _ = _heun_stages(lambda x: _one_flux_rhs_reference(x, v, p, dx), u, dt)
        r_old, _ = _old_form_rhs(u, v, p, dx)
        q_old, _ = _old_form_rhs(y, v, p, dx)
        half = 0.5 * dt
        s, s_old = r + q, r_old + q_old
        t, t_old = half * s, half * s_old
        old_u = u + t_old
        tiny = 64 * np.finfo(float).smallest_subnormal
        e_r = 2 * _gamma(10) * _term_magnitude(u, v, p, dx) + tiny
        e_q = 2 * _gamma(10) * _term_magnitude(y, v, p, dx) + tiny
        unit = _gamma(1)
        bound = (half * (e_r + e_q + unit * (np.abs(s) + np.abs(s_old)))
                 + unit * (np.abs(t) + np.abs(t_old))
                 + unit * (np.abs(got_u) + np.abs(old_u)) + tiny)
        assume(np.isfinite(bound).all() and np.isfinite(old_u).all())
    assert (np.abs(got_u - old_u) <= bound).all()


@settings(max_examples=200, deadline=None)
@given(p=model_params(), b=st.integers(1, 6), n=st.integers(1, 64), data=st.data())
def test_species_rates_equal_kinetics(p, b, n, data):
    """Both prey rates as one plane are bitwise kinetics, negative densities included."""
    u = data.draw(arrays(float, (3, b, n), elements=st.one_of(
        st.just(0.0), st.floats(-10.0, 10.0, allow_subnormal=False))))
    with np.errstate(all="ignore"):
        want = np.stack(kinetics(u[0], u[1], u[2], p))
        assume(np.isfinite(want).all())
        got = _species_rates(u, _species_planes(p, b, n, 1.0 / n))
    assert got.tobytes() == want.tobytes()


SNAPSHOT_COLUMNS = ("u1", "u2", "u3", "v1", "v2", "v3")


@settings(max_examples=25, deadline=None)
@given(members=st.lists(st.sampled_from([None, 1e-1, 1e-2, 1e-3]), min_size=1, max_size=3),
       n=st.integers(4, 48), n_times=st.integers(2, 5),
       gamma=st.sampled_from(["on_manifold", 0.5]))
def test_snapshot_array_consumers_equal_per_state_loops(members, n, n_times, gamma):
    """The array forms of spatial_means, the manifold distance study and the
    snapshot CSVs are bitwise the per-snapshot loops they replaced."""
    grid = make_grid(1.0, n)
    u0 = default_initial_fields(grid)
    T = 0.01
    times = np.linspace(0.0, T, n_times)

    def layer_data(eps_list):
        return [None if e is None else make_layer_data(u0[2], gamma, e, P)
                for e in eps_list]

    trajs = run_batch(u0, layer_data(members), members, T, P, times)
    for traj in trajs:
        means = [[x[0].mean(), x[1].mean(), x[2].mean()] for x in traj.values]
        assert traj.spatial_means().tobytes() == np.array(means).tobytes()
        with tempfile.TemporaryDirectory() as out:
            _write_snapshots(Path(out), traj)
            for i, (t, data) in enumerate(zip(traj.times, traj.values)):
                rows = ["x," + ",".join(SNAPSHOT_COLUMNS)]
                rows += [",".join([f"{x:.17g}"] + [f"{d[j]:.17g}" for d in data])
                         for j, x in enumerate(grid.centers)]
                written = (Path(out) / f"t{i}_{t:.6g}.csv").read_text()
                assert written == "\n".join(rows) + "\n"

    eps_list = [e for e in members if e is not None]
    if eps_list:
        _, dist, _ = manifold_distance_study(*u0, gamma, eps_list, T, P, times)
        ref = run_batch(u0, layer_data(eps_list), eps_list, T, P, times, cfl=0.45)
        want = [[initial_layer_size(Field(x[2], grid), Field(x[5], grid), P)
                 for x in tr.values] for tr in ref]
        assert dist.tobytes() == np.array(want).tobytes()
