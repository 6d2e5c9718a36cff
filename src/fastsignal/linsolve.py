"""Solvers for the Helmholtz (resolvent) equation and the stiff chemical update.

The operator A = -lam * Lap + mu * I on the Neumann grid is symmetric positive
definite with smallest eigenvalue mu, so it admits three interchangeable solve
paths: expansion in the discrete cosine modes, banded Cholesky elimination,
and conjugate gradients.  Time stepping works in the cosine modes, which
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
    "cg",
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
        if not (0.0 < self.lam < math.inf and 0.0 < self.mu < math.inf):
            raise ValueError("diffusivity and decay must be finite and positive")

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
    # the inverse permutation by a scatter: np.argsort would page in numpy's sort code
    inv_out = np.empty_like(j)
    inv_out[even_odd] = j
    return even_odd[-j % n], fwd_twiddle, fwd_out, inv_in, inv_twiddle, -inv_out % n


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

    Direct and spectral paths are exact up to round-off; CG stops at
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
    elif method == "cg":
        x, stats = cg(op.apply, b, tol=tol, maxit=max(500, 4 * op.grid.n))
        iters = stats.iterations
    else:
        raise ValueError(f"unknown solve method {method!r}")
    res = float(np.linalg.norm(op.apply(x) - b))
    return Field(x, op.grid), SolverStats(iters, res, method)


def cg(apply, b: np.ndarray, tol: float = 1e-10,
       maxit: int = 500) -> tuple[np.ndarray, SolverStats]:
    """Conjugate gradients for a symmetric positive definite operator.

    ``apply`` is the matrix-vector callback.  The recursive residual only
    proposes convergence: the solve stops when the true residual
    ||b - A x||_2 <= tol * ||b||_2, and a residual that is not finite never
    counts as converged.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if not np.isfinite(bnorm):
        raise ValueError("right-hand side contains non-finite entries or its norm overflows")
    target = tol * bnorm
    x = np.zeros(b.size)
    if target == 0.0:
        return x, SolverStats(0, 0.0, "cg")
    r = p = b
    rr = r @ r
    for it in range(1, maxit + 1):
        Ap = apply(p)
        alpha = rr / (p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rr, rr_old = r @ r, rr
        if not rr > target * target:  # nan included: the true residual decides
            r = p = b - apply(x)
            rnorm = np.linalg.norm(r)
            if rnorm <= target:
                return x, SolverStats(it, float(rnorm), "cg")
            rr = r @ r  # restart from the true residual
        else:
            p = r + (rr / rr_old) * p
    rnorm = float(np.linalg.norm(b - apply(x)))
    raise SolverConvergenceError(
        f"cg: no convergence in {maxit} iterations "
        f"(residual {rnorm:.3e}, target {target:.3e})", x, rnorm, maxit)


def _ramp_weight(mz: np.ndarray, em1: np.ndarray) -> np.ndarray:
    """psi(z) = 1 - (1 - e^-z)/z = 1 - em1 / mz of mz = -z, series-evaluated
    for small z; em1 is expm1(mz).  z grows along the last axis (b_k grows
    with k), so a row has a small z only if its first one is."""
    if np.maximum.reduce(mz[..., :1], None) <= -1e-3:
        return 1.0 - em1 / mz
    z = -mz
    small = z < 1e-3
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
    per relaxation parameter.  dt / eps = inf gives decay 0, the limit; its
    overflow is the caller's to ignore, once per step in a stepper.
    """
    b = _mode_rates(lam, mu, grid.L, grid.n)
    nb = -b
    mz = nb * (dt / eps)  # -z, exactly: negation commutes with rounding
    em1 = np.expm1(mz)
    return np.exp(mz), em1 / nb, _ramp_weight(mz, em1) / b


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
    with np.errstate(over="ignore"):  # dt / eps = inf gives decay 0, the limit
        decay, gain, ramp = _exp_factors(lam, mu, eps, dt, grid)
    c, s0, s1 = to_modes(np.stack([v, source_start, source_end]))
    return from_modes(decay * c + gain * s0 + ramp * (s1 - s0))
