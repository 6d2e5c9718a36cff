"""Tests for the Helmholtz solvers and the exponential chemical updates."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.fft import dct, idct
from scipy.linalg import cho_solve_banded, cholesky_banded

from fastsignal.grid import Field, make_grid, mode_eigenvalues, mode_vector
from fastsignal.linsolve import (
    HelmholtzOperator,
    SolverConvergenceError,
    _exp_factors,
    _exp_ramp_values,
    _ramp_weight,
    _solve_tridiagonal_values,
    cg,
    from_modes,
    helmholtz_solve,
    to_modes,
)
from fastsignal.model import default_params
from fastsignal.sim_eps import _Stepper

GRID = make_grid(1.0, 256)
OP = HelmholtzOperator(1.0, 0.1, GRID)


def _project_modes(values: np.ndarray, n: int) -> np.ndarray:
    # plain O(n^2) projection; must agree with the FFT path to round-off
    g = make_grid(1.0, n)
    phi = np.stack([mode_vector(g, k) for k in range(n)])
    c = phi @ values
    c *= 2.0 / n
    c[0] *= 0.5
    return c


def smooth_random_field(rng, grid, n_modes=8):
    coeffs = rng.standard_normal(n_modes + 1)
    vals = coeffs[0] * np.ones(grid.n)
    for k in range(1, n_modes + 1):
        vals += coeffs[k] * mode_vector(grid, k)
    return Field(vals, grid)


def test_operator_rejects_bad_coefficients():
    # nan and inf reached the solves, which failed with messages about pivots,
    # non-finite fields or an exhausted iteration cap
    for lam, mu in ((0.0, 0.1), (1.0, -0.1), (np.nan, 0.1), (np.inf, 0.1),
                    (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ValueError, match="finite and positive"):
            HelmholtzOperator(lam, mu, GRID)


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
    for method in ("tridiagonal", "spectral", "cg"):
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
        for method in ("spectral", "cg"):
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
        v, stats = helmholtz_solve(op, rhs, method="cg", tol=1e-12)
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
    """The numpy elimination agrees with LAPACK's banded Cholesky to the direct
    bound of test_helmholtz_paths_agree; the two round differently, so they
    are not bitwise equal."""
    w = OP.lam / (GRID.dx * GRID.dx)
    ab = np.zeros((2, GRID.n))
    ab[1] = 2.0 * w + OP.mu
    ab[1, [0, -1]] = w + OP.mu
    ab[0, 1:] = -w
    rhs = np.random.default_rng(3).standard_normal(shape)
    want = cho_solve_banded((cholesky_banded(ab), False), rhs)
    x = _solve_tridiagonal_values(OP.lam, OP.mu, GRID, rhs)
    cond = 1.0 + 4.0 * OP.lam * GRID.n**2 / OP.mu
    assert np.linalg.norm(x - want) <= 2e-15 * cond * np.linalg.norm(want)
    rhs[3] = np.nan
    with pytest.raises(ValueError):
        _solve_tridiagonal_values(OP.lam, OP.mu, GRID, rhs)


def test_tridiagonal_solve_rejects_non_positive_pivot():
    # mu = 1e-300 is lost next to lam / dx^2, so A is singular in floating point
    op = HelmholtzOperator(1.0, 1e-300, make_grid(1.0, 16))
    with pytest.raises(np.linalg.LinAlgError, match="16-th leading minor not positive definite"):
        helmholtz_solve(op, Field.constant(op.grid, 1.0))


def test_helmholtz_rejects_mismatched_grid_and_unknown_method():
    other = Field.constant(make_grid(1.0, 16), 1.0)
    with pytest.raises(ValueError):
        helmholtz_solve(OP, other)
    for method in ("lu", "gmres"):
        with pytest.raises(ValueError, match="unknown solve method"):
            helmholtz_solve(OP, Field.constant(GRID, 1.0), method=method)


# The test_gmres_* ids below are kept from the restarted GMRES that cg
# replaced as the iterative path; each now exercises cg.
def test_gmres_identity_single_iteration():
    b = np.array([1.0, 2.0, 3.0])
    x, stats = cg(lambda v: v, b)
    assert np.allclose(x, b)
    assert stats.iterations == 1


def test_gmres_scaled_identity():
    b = np.array([2.0, 4.0, -6.0])
    x, stats = cg(lambda v: 2.0 * v, b)
    assert np.allclose(x, b / 2.0)


def test_gmres_zero_rhs():
    x, stats = cg(lambda v: 3.0 * v, np.zeros(5))
    assert np.all(x == 0.0)
    assert stats.iterations == 0


def test_gmres_matches_direct_solve():
    rng = np.random.default_rng(9)
    g = make_grid(1.0, 64)
    op = HelmholtzOperator(1.0, 0.1, g)
    b = smooth_random_field(rng, g).values
    x, stats = cg(op.apply, b, tol=1e-11, maxit=512)
    direct, _ = helmholtz_solve(op, Field(b, g))
    assert np.linalg.norm(x - direct.values) <= 1e-9 * np.linalg.norm(direct.values)
    assert stats.residual_norm <= 1e-11 * np.linalg.norm(b)


def test_gmres_cap_reports_failure_with_best_iterate():
    # 3 iterations cannot reach 1e-14 on a random right-hand side on 256 cells
    b = np.random.default_rng(4).standard_normal(GRID.n)
    with pytest.raises(SolverConvergenceError) as info:
        cg(OP.apply, b, tol=1e-14, maxit=3)
    err = info.value
    assert err.iterations == 3
    assert err.residual_norm > 0
    assert err.best_x.shape == b.shape


def test_cg_nan_operator_exhausts_the_cap():
    # nan > target**2 is False, so a nan residual goes to the true-residual
    # check every iteration and must not count as converged there either
    b = np.array([1.0, 2.0, 3.0])
    with pytest.raises(SolverConvergenceError) as info:
        cg(lambda v: np.full_like(v, np.nan), b, maxit=7)
    assert info.value.iterations == 7
    assert np.isnan(info.value.residual_norm)


def test_gmres_validation():
    with pytest.raises(ValueError):
        cg(lambda v: v, np.array([1.0]), tol=0.0)
    with pytest.raises(ValueError):
        cg(lambda v: v, np.array([np.inf]))


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


@settings(max_examples=80, deadline=None)
@given(n=st.integers(4, 200), rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-250, 1e250))
def test_mode_transform_round_trips_batched_rows(n, rows, seed, scale):
    """from_modes(to_modes(x)) == x to round-off, row by row in a batch, and
    each batched row gets the coefficients of the O(n^2) projection."""
    x = np.random.default_rng(seed).standard_normal((rows, n)) * scale
    c = to_modes(x)
    bound = 1e-14 * np.log2(n) * np.max(np.abs(x))  # ~15x the worst of 400 random cases
    assert np.max(np.abs(from_modes(c) - x)) <= bound
    for b in range(rows):
        assert np.max(np.abs(c[b] - _project_modes(x[b], n))) <= bound


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 2048), rows=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(n=4, rows=1, seed=0)
@example(n=2047, rows=2, seed=0)
@example(n=2048, rows=3, seed=0)
def test_mode_transforms_equal_scipy_dct(n, rows, seed):
    """The real-FFT transforms give scipy's type-2 DCT and its inverse, in
    the mode normalisation, to 2e-15 of each row's largest entry (~2x the
    worst over every n in 4..2048)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, n)) * rng.uniform(0.1, 10.0, (rows, 1))
    want = dct(x, type=2) / n
    want[:, 0] *= 0.5
    bound = 2e-15 * np.abs(want).max(-1, keepdims=True)
    assert np.all(np.abs(to_modes(x) - want) <= bound)
    c = rng.standard_normal((rows, n)) * rng.uniform(0.1, 10.0, (rows, 1))
    y = c * n
    y[:, 0] *= 2.0
    want = idct(y, type=2)
    bound = 2e-15 * np.abs(want).max(-1, keepdims=True)
    assert np.all(np.abs(from_modes(c) - want) <= bound)


def _refined_solution(lam, mu, grid, rhs):
    """Solution of -lam Lap v + mu v = rhs by iterative refinement with exact
    rational residuals of the mirrored-ghost stencil, so only the final
    rounding to floats is inexact."""
    w, mu_q = Fraction(lam) / Fraction(grid.dx) ** 2, Fraction(mu)
    b = [Fraction(r) for r in rhs]
    x = [Fraction(0)] * grid.n
    for _ in range(4):  # each banded solve gains ~cond * 2**-53 <= 1e-8
        ghost = [x[0], *x, x[-1]]
        r = [b[j] + w * (ghost[j] - 2 * x[j] + ghost[j + 2]) - mu_q * x[j]
             for j in range(grid.n)]
        d = _solve_tridiagonal_values(lam, mu, grid, np.array([float(q) for q in r]))
        x = [xj + Fraction(dj) for xj, dj in zip(x, d)]
    return np.array([float(q) for q in x])


@pytest.mark.parametrize("n", [4, 37, 256, 2048])
@pytest.mark.parametrize("lam, mu", [(1.0, 0.1), (0.1, 2.0)])
def test_stepper_resolvent_matches_refined_reference(n, lam, mu):
    """The stepper's spectral resolvent is accurate to 1e-13 of the solution
    (measured <= 1e-15; the banded Cholesky reaches 2e-9 at n = 2048)."""
    g = make_grid(1.0, n)
    rng = np.random.default_rng(n)
    rhs = 1.0 + 3.0 * np.cos(np.pi * g.centers) + rng.standard_normal((2, n))
    stepper = _Stepper(g, default_params().with_updates(lambda1=lam, mu1=mu, zeta1=1.0))
    got = stepper.solve_elliptic(rhs, 0)
    for row, want in zip(got, (_refined_solution(lam, mu, g, r) for r in rhs)):
        assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(4, 64), lam=st.floats(0.01, 1.0), mu=st.floats(0.1, 2.0),
       seed=st.integers(0, 2**32 - 1))
@example(n=64, lam=1.0, mu=0.1, seed=0)  # the worst-conditioned corner, cond ~ 1.6e5
@example(n=4, lam=1.0, mu=0.1, seed=0)
def test_helmholtz_paths_agree(n, lam, mu, seed):
    """Banded Cholesky, DCT and CG solve the same system: each residual is
    small and the solutions agree to within the condition number."""
    g = make_grid(1.0, n)
    op = HelmholtzOperator(lam, mu, g)
    rhs = Field(np.random.default_rng(seed).standard_normal(n), g)
    bnorm = np.linalg.norm(rhs.values)
    cond = 1.0 + 4.0 * lam * n * n / mu  # largest over smallest eigenvalue
    # direct paths: ~10x the worst residual and gap of 400 random cases
    direct = 2e-15 * cond
    tol = 1e-10
    sols = {}
    for method in ("tridiagonal", "spectral", "cg"):
        v, stats = helmholtz_solve(op, rhs, method=method, tol=tol)
        assert stats.residual_norm <= (tol if method == "cg" else direct) * bnorm
        sols[method] = v.values
    ref = sols["tridiagonal"]
    scale = np.linalg.norm(ref)
    assert np.linalg.norm(sols["spectral"] - ref) <= direct * scale
    # ||A^-1|| tol ||b|| over ||x|| >= ||b|| / ||A||
    assert np.linalg.norm(sols["cg"] - ref) <= (tol * cond + direct) * scale


def _ramp_weight_reference(z):
    small = z < 1e-3
    zs = np.where(small, 1.0, z)
    direct = 1.0 + np.expm1(-zs) / zs
    series = z / 2.0 - z * z / 6.0 + z**3 / 24.0 - z**4 / 120.0
    return np.where(small, series, direct)


def _exp_factors_reference(lam, mu, eps, dt, grid):
    """(decay, gain, ramp) as _exp_factors computed them before it cached the
    mode rates and shared expm1(-z) with the ramp weight."""
    b = mu - lam * mode_eigenvalues(grid)
    z = b * (dt / eps)
    return np.exp(-z), -np.expm1(-z) / b, _ramp_weight_reference(z) / b


@settings(max_examples=150, deadline=None)
@given(n=st.integers(4, 64), lam=st.floats(1e-3, 2.0), mu=st.floats(1e-3, 2.0),
       eps=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4),
       log_ratio=st.floats(-10.0, 1.0), column=st.booleans())
# the rates at n = 64 span (0.1, 1.6e4): these steps put z on both sides of 1e-3
@example(n=64, lam=1.0, mu=0.1, eps=[1e-3], log_ratio=-6.0, column=True)
@example(n=64, lam=1.0, mu=0.1, eps=[1.0, 1e-3], log_ratio=-6.5, column=False)
def test_exp_factors_equal_reference_formula(n, lam, mu, eps, log_ratio, column):
    """The cached rates and shared expm1 leave every factor's bits unchanged,
    with z below, above and on both sides of the series cut-off."""
    grid = make_grid(1.0, n)
    dt = np.array(eps) * 10.0 ** log_ratio
    if column:
        eps_arg, dt_arg = np.array(eps)[:, None], dt[:, None]
    else:
        eps_arg, dt_arg = eps[0], float(dt[0])
    got = _exp_factors(lam, mu, eps_arg, dt_arg, grid)
    want = _exp_factors_reference(lam, mu, eps_arg, dt_arg, grid)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    z = (mu - lam * mode_eigenvalues(grid)) * (dt_arg / eps_arg)
    assert _ramp_weight(-z, np.expm1(-z)).tobytes() == _ramp_weight_reference(z).tobytes()
