"""Tests for the Helmholtz solvers and the exponential chemical updates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_solve_banded

from fastsignal.grid import Field, make_grid, mode_eigenvalues, mode_vector
from fastsignal.linsolve import (
    HelmholtzOperator,
    SolverConvergenceError,
    _banded_cholesky,
    _project_modes,
    _exp_ramp_values,
    _solve_tridiagonal_values,
    from_modes,
    gmres,
    helmholtz_solve,
    to_modes,
)

GRID = make_grid(1.0, 256)
OP = HelmholtzOperator(1.0, 0.1, GRID)


def smooth_random_field(rng, grid, n_modes=8):
    coeffs = rng.standard_normal(n_modes + 1)
    vals = coeffs[0] * np.ones(grid.n)
    for k in range(1, n_modes + 1):
        vals += coeffs[k] * mode_vector(grid, k)
    return Field(vals, grid)


def test_operator_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        HelmholtzOperator(0.0, 0.1, GRID)
    with pytest.raises(ValueError):
        HelmholtzOperator(1.0, -0.1, GRID)


def test_mode_transform_roundtrip_and_projection_agreement():
    rng = np.random.default_rng(0)
    for n in (16, 37, 256):
        g = make_grid(1.0, n)
        f = rng.standard_normal(n)
        c_fast = to_modes(f.copy())
        c_slow = _project_modes(f, n)
        assert np.max(np.abs(c_fast - c_slow)) <= 1e-12 * max(1.0, np.max(np.abs(c_fast)))
        assert np.max(np.abs(from_modes(c_fast.copy()) - f)) <= 1e-12


def test_helmholtz_constant_steady_state():
    v, stats = helmholtz_solve(OP, Field.constant(GRID, 0.1))
    assert np.allclose(v.values, 1.0, atol=1e-10)
    assert stats.method == "tridiagonal"
    zero, _ = helmholtz_solve(OP, Field.constant(GRID, 0.0))
    assert np.allclose(zero.values, 0.0, atol=1e-14)


def test_helmholtz_mode_formula_all_methods():
    a1 = mode_eigenvalues(GRID)[1]
    rhs = Field(mode_vector(GRID, 1), GRID)
    expected = mode_vector(GRID, 1) / (-a1 + 0.1)
    sols = {}
    for method in ("tridiagonal", "spectral", "gmres"):
        v, stats = helmholtz_solve(OP, rhs, method=method, tol=1e-12)
        sols[method] = v.values
        assert np.max(np.abs(v.values - expected)) <= 1e-10 * np.max(np.abs(expected))
    for a in sols.values():
        for b in sols.values():
            rel = np.linalg.norm(a - b) / np.linalg.norm(a)
            assert rel <= 1e-10


def test_helmholtz_solver_cross_agreement_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        rhs = smooth_random_field(rng, GRID)
        ref, _ = helmholtz_solve(OP, rhs, method="tridiagonal")
        for method in ("spectral", "gmres"):
            v, _ = helmholtz_solve(OP, rhs, method=method, tol=1e-10)
            rel = np.linalg.norm(v.values - ref.values) / np.linalg.norm(ref.values)
            assert rel <= 1e-9


def test_helmholtz_gmres_tight_tolerance_small_grid():
    """tol 1e-12 is attainable in double precision only while the condition
    number 4*lam*n^2/(mu*L^2) stays small; check it on n = 16."""
    g = make_grid(1.0, 16)
    op = HelmholtzOperator(1.0, 0.1, g)
    rng = np.random.default_rng(13)
    for _ in range(10):
        rhs = smooth_random_field(rng, g)
        ref, _ = helmholtz_solve(op, rhs, method="tridiagonal")
        v, stats = helmholtz_solve(op, rhs, method="gmres", tol=1e-12)
        assert stats.residual_norm <= 1e-12 * np.linalg.norm(rhs.values)
        rel = np.linalg.norm(v.values - ref.values) / np.linalg.norm(ref.values)
        assert rel <= 1e-9


def test_helmholtz_maximum_principle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rhs = Field(rng.random(GRID.n), GRID)
        v, _ = helmholtz_solve(OP, rhs)
        assert v.values.min() >= -1e-12


@pytest.mark.parametrize("shape", [(256,), (256, 5)])
def test_tridiagonal_solve_equals_cho_solve_banded(shape):
    rhs = np.random.default_rng(3).standard_normal(shape)
    cb = _banded_cholesky(OP.lam, OP.mu, GRID.L, GRID.n)
    x = _solve_tridiagonal_values(OP.lam, OP.mu, GRID, rhs)
    assert np.array_equal(x, cho_solve_banded((cb, False), rhs))
    rhs[3] = np.nan
    with pytest.raises(ValueError):
        _solve_tridiagonal_values(OP.lam, OP.mu, GRID, rhs)


def test_helmholtz_rejects_mismatched_grid_and_unknown_method():
    other = Field.constant(make_grid(1.0, 16), 1.0)
    with pytest.raises(ValueError):
        helmholtz_solve(OP, other)
    with pytest.raises(ValueError):
        helmholtz_solve(OP, Field.constant(GRID, 1.0), method="lu")


def test_gmres_identity_single_iteration():
    b = np.array([1.0, 2.0, 3.0])
    x, stats = gmres(lambda v: v, b)
    assert np.allclose(x, b)
    assert stats.iterations == 1


def test_gmres_scaled_identity():
    b = np.array([2.0, 4.0, -6.0])
    x, stats = gmres(lambda v: 2.0 * v, b)
    assert np.allclose(x, b / 2.0)


def test_gmres_zero_rhs():
    x, stats = gmres(lambda v: 3.0 * v, np.zeros(5))
    assert np.all(x == 0.0)
    assert stats.iterations == 0


def test_gmres_matches_direct_solve():
    rng = np.random.default_rng(9)
    g = make_grid(1.0, 64)
    op = HelmholtzOperator(1.0, 0.1, g)
    b = smooth_random_field(rng, g).values
    x, stats = gmres(op.apply, b, tol=1e-11, restart=64, maxit=512)
    direct, _ = helmholtz_solve(op, Field(b, g))
    assert np.linalg.norm(x - direct.values) <= 1e-9 * np.linalg.norm(direct.values)
    assert stats.residual_norm <= 1e-11 * np.linalg.norm(b)


def test_gmres_cap_reports_failure_with_best_iterate():
    # an indefinite shuffle map that GMRES cannot solve in 3 iterations
    A = np.array([[0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [1.0, 0.0, 0.0, 0.0]])
    b = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(SolverConvergenceError) as info:
        gmres(lambda v: A @ v, b, tol=1e-14, restart=2, maxit=3)
    err = info.value
    assert err.iterations == 3
    assert err.residual_norm > 0
    assert err.best_x.shape == b.shape


def test_gmres_validation():
    with pytest.raises(ValueError):
        gmres(lambda v: v, np.array([1.0]), tol=0.0)
    with pytest.raises(ValueError):
        gmres(lambda v: v, np.array([np.inf]))


def test_exp_propagate_constant_fixed_point():
    c = 1.3
    v = np.full(GRID.n, c)
    src = np.full(GRID.n, 0.1 * c)
    for eps in (1.0, 1e-3, 1e-6):
        out = _exp_ramp_values(1.0, 0.1, eps, 0.37, v, src, src, GRID)
        assert np.max(np.abs(out - c)) <= 1e-12


def test_exp_propagate_tiny_step_is_identity():
    # at dt -> 0 the update tends to the identity; the residual change is
    # bounded by the fastest mode rate b_max * dt
    rng = np.random.default_rng(2)
    v = rng.standard_normal(GRID.n)
    src = rng.standard_normal(GRID.n)
    dt = 1e-14
    b_max = 0.1 + 2.0 / GRID.dx**2
    out = _exp_ramp_values(1.0, 0.1, 1.0, dt, v, src, src, GRID)
    scale = np.max(np.abs(v)) + np.max(np.abs(src))
    assert np.max(np.abs(out - v)) <= 2.0 * b_max * dt * scale + 1e-12


def test_exp_propagate_mode_decay_closed_form():
    a1 = mode_eigenvalues(GRID)[1]
    v = mode_vector(GRID, 1)
    zero = np.zeros(GRID.n)
    out = _exp_ramp_values(1.0, 0.1, 1e-3, 1e-2, v, zero, zero, GRID)
    factor = np.exp((a1 - 0.1) * 10.0)
    assert np.max(np.abs(out - factor * v)) <= 1e-12
    # brute-force oracle: integrate the mode ODE eps c' = (a1 - mu) c
    c = 1.0
    m = 20000
    h = 1e-2 / m
    for _ in range(m):
        k1 = (a1 - 0.1) * c / 1e-3
        k2 = (a1 - 0.1) * (c + h * k1 / 2) / 1e-3
        k3 = (a1 - 0.1) * (c + h * k2 / 2) / 1e-3
        k4 = (a1 - 0.1) * (c + h * k3) / 1e-3
        c += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(factor - c) <= 1e-9 * abs(c)


def test_exp_propagate_eps_rescaling_identity():
    rng = np.random.default_rng(8)
    v = rng.standard_normal(GRID.n)
    s = rng.standard_normal(GRID.n)
    a = _exp_ramp_values(1.0, 0.1, 1e-3, 1e-2, v, s, s, GRID)
    b = _exp_ramp_values(1.0, 0.1, 1.0, 1e-2 / 1e-3, v, s, s, GRID)
    assert np.max(np.abs(a - b)) == 0.0


def test_exp_propagate_contraction_toward_steady_state():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(GRID.n) + 2.0
    src = smooth_random_field(rng, GRID)
    steady, _ = helmholtz_solve(OP, src, method="spectral")
    s = src.values
    dists = []
    for dt in (0.0, 1e-3, 1e-2, 1e-1, 1.0):
        out = v if dt == 0.0 else _exp_ramp_values(1.0, 0.1, 1e-2, dt, v, s, s, GRID)
        dists.append(np.linalg.norm(out - steady.values))
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


def test_exp_propagate_fixed_point_independent_of_eps():
    rng = np.random.default_rng(6)
    src = smooth_random_field(rng, GRID)
    steady, _ = helmholtz_solve(OP, src, method="spectral")
    v0 = rng.standard_normal(GRID.n)
    s = src.values
    for eps in (1.0, 1e-3, 1e-6):
        out = _exp_ramp_values(1.0, 0.1, eps, 1e9 * eps, v0, s, s, GRID)
        assert np.max(np.abs(out - steady.values)) <= 1e-8


def test_exp_propagate_validation():
    v = np.ones(GRID.n)
    with pytest.raises(ValueError):
        _exp_ramp_values(1.0, 0.1, 0.0, 0.1, v, v, v, GRID)
    with pytest.raises(ValueError):
        _exp_ramp_values(1.0, 0.1, 1.0, -0.1, v, v, v, GRID)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 64), eps=st.floats(1e-7, 1.0), dt=st.floats(1e-7, 1.0),
       lam=st.floats(0.01, 2.0), mu=st.floats(0.01, 2.0), seed=st.integers(0, 2**32 - 1))
def test_exp_ramp_constant_source_is_exact_per_mode(n, eps, dt, lam, mu, seed):
    """With s1 == s0 each cosine mode follows its closed form
    e^-z c_k + (1 - e^-z)/b_k s_k, b_k = mu - lam a_k, z = b_k dt / eps."""
    g = make_grid(1.0, n)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    s = rng.standard_normal(n)
    out = _exp_ramp_values(lam, mu, eps, dt, v, s, s, g)
    # modes by the O(n^2) projection, independent of the DCT path
    b = mu - lam * mode_eigenvalues(g)
    z = b * dt / eps
    coeffs = np.exp(-z) * _project_modes(v, n) + (-np.expm1(-z)) / b * _project_modes(s, n)
    expected = coeffs @ np.stack([mode_vector(g, k) for k in range(n)])
    scale = np.max(np.abs(v)) + np.max(np.abs(s)) / mu
    assert np.max(np.abs(out - expected)) <= 1e-12 * n * scale


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 64), eps=st.floats(1e-7, 1.0), dt=st.floats(1e-7, 1.0),
       lam=st.floats(0.01, 2.0), mu=st.floats(0.01, 2.0), seed=st.integers(0, 2**32 - 1))
def test_exp_ramp_linear_source_is_exact_per_mode(n, eps, dt, lam, mu, seed):
    """With a source moving linearly from s0 to s1 over the step each cosine
    mode follows e^-z c_k + (1 - e^-z)/b_k s0_k + psi(z)/b_k (s1_k - s0_k),
    psi(z) = 1 - (1 - e^-z)/z, b_k = mu - lam a_k, z = b_k dt / eps."""
    g = make_grid(1.0, n)
    rng = np.random.default_rng(seed)
    v, s0, s1 = rng.standard_normal((3, n))
    out = _exp_ramp_values(lam, mu, eps, dt, v, s0, s1, g)
    # modes by the O(n^2) projection, independent of the DCT path; z >= 1e-9
    # here, so the direct psi loses at most ~1e-16 absolute to cancellation
    b = mu - lam * mode_eigenvalues(g)
    z = b * dt / eps
    psi = 1.0 + np.expm1(-z) / z
    c0, c1 = _project_modes(s0, n), _project_modes(s1, n)
    coeffs = (np.exp(-z) * _project_modes(v, n) + (-np.expm1(-z)) / b * c0
              + psi / b * (c1 - c0))
    expected = coeffs @ np.stack([mode_vector(g, k) for k in range(n)])
    scale = np.max(np.abs(v)) + (np.max(np.abs(s0)) + np.max(np.abs(s1))) / mu
    assert np.max(np.abs(out - expected)) <= 1e-12 * n * scale


def test_exp_propagate_ramp_mode_oracle():
    """Brute-force RK4 on the scalar mode ODE with a linearly ramped source."""
    g = make_grid(1.0, 32)
    lam, mu, eps, dt = 1.0, 0.1, 1e-3, 0.01
    k = 3
    a = mode_eigenvalues(g)[k]
    v0c, s0c, s1c = 0.7, 0.4, 0.9
    phi = mode_vector(g, k)
    out = _exp_ramp_values(lam, mu, eps, dt, v0c * phi, s0c * phi, s1c * phi, g)
    got = out @ phi * 2.0 / g.n
    c = v0c
    m = 100000
    h = dt / m
    for i in range(m):
        def f(ci, tt):
            return ((lam * a - mu) * ci + s0c + (s1c - s0c) * tt / dt) / eps
        t0 = i * h
        k1 = f(c, t0)
        k2 = f(c + h / 2 * k1, t0 + h / 2)
        k3 = f(c + h / 2 * k2, t0 + h / 2)
        k4 = f(c + h * k3, t0 + h)
        c += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(got - c) <= 1e-12


def test_exp_propagate_ramp_quasi_steady_lag():
    """For dt >> eps/b the update lands on A^-1 s1 - eps A^-2 (s1-s0)/dt."""
    g = make_grid(1.0, 64)
    lam, mu, eps, dt = 1.0, 0.1, 1e-7, 0.1
    rng = np.random.default_rng(21)
    v = Field(rng.standard_normal(g.n), g)
    s0 = smooth_random_field(rng, g)
    s1 = smooth_random_field(rng, g)
    out = _exp_ramp_values(lam, mu, eps, dt, v.values, s0.values, s1.values, g)
    op = HelmholtzOperator(lam, mu, g)
    lead, _ = helmholtz_solve(op, s1, method="spectral")
    sdot = Field((s1.values - s0.values) / dt, g)
    lag1, _ = helmholtz_solve(op, sdot, method="spectral")
    lag2, _ = helmholtz_solve(op, lag1, method="spectral")
    expected = lead.values - eps * lag2.values
    assert np.max(np.abs(out - expected)) <= 1e-10
