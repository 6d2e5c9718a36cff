"""Solvers for the Helmholtz (resolvent) equation and the stiff chemical update.

The operator A = -lam * Lap + mu * I on the Neumann grid is symmetric positive
definite with smallest eigenvalue mu, so it admits three interchangeable solve
paths: expansion in the discrete cosine modes, banded Cholesky elimination,
and restarted GMRES.  Time stepping works in the cosine modes, which
diagonalise A exactly; the other two paths cross-check it.  The exponential
update advances eps * dv/dt = lam * Lap v - mu * v + source exactly per mode
for a source varying linearly over the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, Grid, _laplacian, mode_eigenvalues

__all__ = [
    "HelmholtzOperator",
    "SolverStats",
    "SolverConvergenceError",
    "helmholtz_solve",
    "gmres",
    "to_modes",
    "from_modes",
]


@dataclass(frozen=True)
class HelmholtzOperator:
    """A = -lam * Lap_h + mu * I with the mirrored-ghost Neumann Laplacian."""

    lam: float
    mu: float
    grid: Grid

    def __post_init__(self):
        if self.lam <= 0 or self.mu <= 0:
            raise ValueError("diffusivity and decay must be positive")

    def apply(self, values: np.ndarray) -> np.ndarray:
        return -self.lam * _laplacian(values, self.grid.dx) + self.mu * values


@dataclass(frozen=True)
class SolverStats:
    iterations: int
    residual_norm: float
    method: str


class SolverConvergenceError(RuntimeError):
    """Raised when an iterative solve exhausts its iteration cap.

    Carries the best iterate found so the caller can inspect how far the
    solve got; it is never returned silently as a solution.
    """

    def __init__(self, message: str, best_x: np.ndarray, residual_norm: float, iterations: int):
        super().__init__(message)
        self.best_x = best_x
        self.residual_norm = residual_norm
        self.iterations = iterations


@lru_cache(maxsize=64)
def _dct_plan(n: int) -> tuple:
    """Gathers and scaled twiddles of the length-n cosine-mode transforms:
    Makhoul's DCT through one real FFT of the even samples followed by the odd
    ones reversed.  Read circularly reversed, that sequence has the conjugate
    FFT, so each coefficient is the real or imaginary part of one twiddled
    product and one gather of the (re, im) pairs emits them all."""
    k, j = np.arange(n // 2 + 1), np.arange(n)
    even_odd = np.concatenate([j[::2], j[1::2][::-1]])
    w = np.exp(0.5j * np.pi / n * k)
    fwd_twiddle = np.where(k == 0, 1.0 / n, (2.0 / n) * w)  # the mode normalisation
    fwd_out = np.where(j < k.size, 2 * j, 2 * (n - j) + 1)
    # inverse mode k is c_k + i c_{n-k}; at k = 0 the real twiddle and irfft drop the i c_0
    inv_in = np.stack([k, (n - k) % n], axis=-1).ravel()
    inv_twiddle = np.where(k == 0, 1.0, 0.5 * w.conj())
    return even_odd[-j % n], fwd_twiddle, fwd_out, inv_in, inv_twiddle, -np.argsort(even_odd) % n


def to_modes(values: np.ndarray) -> np.ndarray:
    """Coefficients c with values_j = sum_k c_k cos(k pi (j+1/2) / n), along the last axis."""
    into, twiddle, out = _dct_plan(values.shape[-1])[:3]
    z = np.fft.rfft(values.take(into, axis=-1))
    z *= twiddle
    return z.view(float).take(out, axis=-1)


def from_modes(coeffs: np.ndarray) -> np.ndarray:
    """Values of the mode coefficients coeffs: the inverse of to_modes."""
    into, twiddle, out = _dct_plan(coeffs.shape[-1])[3:]
    z = coeffs.take(into, axis=-1).astype(float, copy=False).view(complex)
    z *= twiddle
    return np.fft.irfft(z, coeffs.shape[-1], norm="forward").take(out, axis=-1)


@lru_cache(maxsize=64)
def _banded_cholesky(lam: float, mu: float, L: float, n: int) -> tuple[tuple, tuple]:
    """Diagonal d and superdiagonal s of the upper factor U of A = U^T U, by
    d_j = sqrt(a_j - s_{j-1}^2) and s_j = -w / d_j with w = lam / dx^2.  s
    carries a zero at each end, so s[j] couples rows j - 1 and j."""
    dx = L / n
    w = lam / (dx * dx)
    d, s = [], [0.0]
    for j in range(n):
        pivot = (w if j in (0, n - 1) else 2.0 * w) + mu - s[-1] * s[-1]
        if not 0.0 < pivot < math.inf:
            raise np.linalg.LinAlgError(f"{j + 1}-th leading minor not positive definite")
        d.append(math.sqrt(pivot))
        s.append(-w / d[-1])
    return tuple(d), (*s[:-1], 0.0)


def _solve_tridiagonal_values(lam: float, mu: float, grid: Grid,
                              rhs: np.ndarray) -> np.ndarray:
    """Banded Cholesky solve for an (n,) or (n, B) right-hand side: U^T y = rhs
    forward, then U x = y backward, one grid row (axis 0) at a time."""
    if not np.all(np.isfinite(rhs)):
        raise ValueError("array must not contain infs or NaNs")
    d, s = _banded_cholesky(lam, mu, grid.L, grid.n)
    x = np.array(rhs, dtype=float)
    row = 0.0
    for j in range(grid.n):
        row = x[j] = (x[j] - s[j] * row) / d[j]
    for j in reversed(range(grid.n)):
        row = x[j] = (x[j] - s[j + 1] * row) / d[j]
    return x


def helmholtz_solve(
    op: HelmholtzOperator,
    rhs: Field,
    method: str = "tridiagonal",
    tol: float = 1e-10,
) -> tuple[Field, SolverStats]:
    """Solve A v = rhs by the requested path.

    Direct and spectral paths are exact up to round-off; GMRES stops at
    ||A v - rhs||_2 <= tol * ||rhs||_2 and raises SolverConvergenceError when
    the iteration cap is hit first.
    """
    if rhs.grid != op.grid:
        raise ValueError("rhs grid does not match the operator grid")
    b = rhs.values
    iters = 0
    if method == "tridiagonal":
        x = _solve_tridiagonal_values(op.lam, op.mu, op.grid, b)
    elif method == "spectral":
        x = _spectral_resolvent(op.lam, op.mu, op.grid, b)
    elif method == "gmres":
        if tol <= 0:
            raise ValueError("iterative solve needs tol > 0")
        # full-memory cycles: short restarts stagnate on this operator once
        # lam/dx^2 >> mu (condition number ~ 4 lam n^2 / (mu L^2))
        n = op.grid.n
        x, stats = gmres(op.apply, b, tol=tol, restart=max(30, n),
                         maxit=max(500, 4 * n))
        iters = stats.iterations
    else:
        raise ValueError(f"unknown solve method {method!r}")
    res = float(np.linalg.norm(op.apply(x) - b))
    return Field(x, op.grid), SolverStats(iters, res, method)


def gmres(
    apply,
    b: np.ndarray,
    tol: float = 1e-10,
    restart: int = 30,
    maxit: int = 500,
) -> tuple[np.ndarray, SolverStats]:
    """Restarted GMRES with modified Gram-Schmidt orthogonalisation.

    ``apply`` is the matrix-vector callback; iteration counts are inner
    Arnoldi steps summed across restart cycles.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")
    n = b.size
    x = np.zeros(n)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), SolverStats(0, 0.0, "gmres")

    total = 0
    while True:
        r = b - apply(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= tol * bnorm:
            return x, SolverStats(total, float(rnorm), "gmres")
        if total >= maxit:
            raise SolverConvergenceError(
                f"gmres: no convergence in {maxit} iterations "
                f"(residual {rnorm:.3e}, target {tol * bnorm:.3e})",
                x,
                float(rnorm),
                total,
            )
        m = min(restart, maxit - total)
        V = np.zeros((m + 1, n))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        V[0] = r / rnorm
        g[0] = rnorm

        j_used = 0
        for j in range(m):
            # np.array copies: the callback may return a view of its input
            w = np.array(apply(V[j]), dtype=float)
            for i in range(j + 1):
                H[i, j] = w @ V[i]
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            lucky = H[j + 1, j] == 0.0
            if not lucky:
                V[j + 1] = w / H[j + 1, j]
            # apply stored Givens rotations, then form the new one
            for i in range(j):
                hi = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = hi
            beta = np.hypot(H[j, j], H[j + 1, j])
            cs[j] = H[j, j] / beta
            sn[j] = H[j + 1, j] / beta
            H[j, j] = beta
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total += 1
            j_used = j + 1
            if abs(g[j + 1]) <= tol * bnorm or lucky:
                break

        y = np.zeros(j_used)
        for i in range(j_used - 1, -1, -1):
            y[i] = (g[i] - H[i, i + 1 : j_used] @ y[i + 1 :]) / H[i, i]
        x = x + V[:j_used].T @ y


def _ramp_weight(z: np.ndarray, em1: np.ndarray) -> np.ndarray:
    """psi(z) = 1 - (1 - e^-z)/z, series-evaluated for small z; em1 is
    expm1(-z)."""
    small = z < 1e-3
    if not small.any():
        return 1.0 + em1 / z
    zs = np.where(small, 1.0, z)
    series = z / 2.0 - z * z / 6.0 + z**3 / 24.0 - z**4 / 120.0
    return np.where(small, series, 1.0 + em1 / zs)


@lru_cache(maxsize=64)
def _mode_rates(lam: float, mu: float, L: float, n: int) -> np.ndarray:
    """b_k = mu - lam a_k, the per-mode rates of A = -lam Lap + mu.  A decay
    lost in the round-off of the largest rate (A singular in floating point)
    is rejected, not turned into inf or noise by the solves that divide."""
    with np.errstate(over="ignore"):  # an infinite rate is rejected below
        b = mu - lam * mode_eigenvalues(Grid(L, n))
    if b[-1] > 2.0**53 * mu:  # b_k grows with k
        raise ValueError(f"decay mu={mu:g} is lost in the round-off of the largest mode "
                         f"rate {b[-1]:.3g} of lam={lam:g} on n={n} cells")
    b.flags.writeable = False
    return b


def _spectral_resolvent(lam: float, mu: float, grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve (-lam Lap + mu) v = rhs along the last axis, mode by mode."""
    return from_modes(to_modes(rhs) / _mode_rates(lam, mu, grid.L, grid.n))


def _source_resolvent(lam: float, mu: float, zeta: float, grid: Grid, u: np.ndarray,
                      i: int) -> np.ndarray:
    """Chemical i's elliptic solve (-lam Lap + mu) v = zeta * u along the last
    axis; a source or solution that overflows is a ValueError naming zeta<i>."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = _spectral_resolvent(lam, mu, grid, zeta * u)
    if not np.isfinite(v).all():
        raise ValueError(f"zeta{i}={zeta:g} makes the elliptic solve of v{i} overflow "
                         f"(mu{i}={mu:g})")
    return v


def _exp_factors(lam: float, mu: float, eps, dt: float, grid: Grid):
    """Per-mode (decay, gain, ramp) factors of the exponential update over dt.

    The gain is evaluated with expm1 so small arguments do not cancel.

    eps may be an array of shape (B, 1), which gives (B, n) factors, one row
    per relaxation parameter.
    """
    b = _mode_rates(lam, mu, grid.L, grid.n)
    with np.errstate(over="ignore"):  # dt / eps = inf gives decay 0, the limit
        z = b * (dt / eps)
    em1 = np.expm1(-z)
    return np.exp(-z), -em1 / b, _ramp_weight(z, em1) / b


def _exp_ramp_values(lam: float, mu: float, eps: float, dt: float, v: np.ndarray,
                     source_start: np.ndarray, source_end: np.ndarray,
                     grid: Grid) -> np.ndarray:
    """Advance eps * dv/dt = lam * Lap v - mu * v + source over dt.

    Exact for a source varying linearly from source_start to source_end over
    the step.  Per mode: v <- e^-z v + (1-e^-z)/b s0 + psi(z)/b (s1 - s0) with
    b = mu - lam a_k and z = b dt / eps.  Unlike a frozen-source update this
    retains the O(eps) quasi-steady lag -eps A^-2 ds/dt when dt >> eps/b,
    which is what makes relaxation-vs-limit differences measurable for small
    eps at practical step sizes.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    decay, gain, ramp = _exp_factors(lam, mu, eps, dt, grid)
    c, s0, s1 = to_modes(np.stack([v, source_start, source_end]))
    return from_modes(decay * c + gain * s0 + ramp * (s1 - s0))
