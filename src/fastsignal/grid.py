"""1-D cell-centered grid with no-flux boundaries and the discrete spatial operators.

The mesh covers (0, L) with n equal cells; unknowns live at cell centers
x_j = (j + 1/2) dx.  Homogeneous Neumann conditions are realised by mirrored
ghost cells, which makes the discrete cosine modes exact eigenvectors of the
Laplacian and makes every transport stencil conservative to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "neumann_modes",
]


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh on the interval (0, L)."""

    L: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.L) or self.L <= 0:
            raise ValueError(f"domain length must be positive, got L={self.L}")
        if not np.isfinite(self.n) or int(self.n) != self.n or self.n < 4:
            raise ValueError(f"cell count must be an integer >= 4, got n={self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "L", float(self.L))
        if not 0.0 < self.dx * self.dx < np.inf:
            # every operator divides by dx * dx
            raise ValueError(
                f"cell width squared must be positive and finite, got L={self.L}, n={self.n}")

    @property
    def dx(self) -> float:
        return self.L / self.n

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.dx


@dataclass(frozen=True)
class Field:
    """A scalar function sampled at the cell centers of one grid.

    Treated as an immutable value: operations return new Fields and never
    write into ``values``.
    """

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError(
                f"field needs exactly {self.grid.n} samples, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite entries")
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "Field":
        return cls(np.full(grid.n, float(c)), grid)


def make_grid(L: float, n: int) -> Grid:
    """Build the uniform cell-centered grid on (0, L) with n cells."""
    return Grid(L, n)


def _laplacian(values: np.ndarray, dx: float) -> np.ndarray:
    # along the last axis; mirrored ghosts f[-1] = f[0], f[n] = f[n-1] encode
    # the no-flux condition
    out = np.empty_like(values)
    out[..., 1:-1] = values[..., :-2] - 2.0 * values[..., 1:-1] + values[..., 2:]
    out[..., 0] = values[..., 1] - values[..., 0]
    out[..., -1] = values[..., -2] - values[..., -1]
    out /= dx * dx
    return out


def _chemotaxis_div(u: np.ndarray, v: np.ndarray, chi, dx: float) -> np.ndarray:
    # conservative upwind (donor-cell) face-flux discretization of
    # chi * div(u grad v) along the last axis; boundary faces carry zero flux.
    # chi is a scalar or broadcasts against the faces, one coefficient per
    # leading row.  The donor of the drift -chi*grad(v) is cell j+1 where
    # chi*grad(v) > 0, so a negative chi evaluates -|chi| div(u grad v) with
    # donor cells chosen for the reversed drift.
    cg = chi * ((v[..., 1:] - v[..., :-1]) / dx)
    flux = np.maximum(cg, 0.0) * u[..., 1:] + np.minimum(cg, 0.0) * u[..., :-1]
    out = np.zeros(flux.shape[:-1] + u.shape[-1:])
    out[..., :-1] += flux
    out[..., 1:] -= flux
    out /= dx
    return out


def mode_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues a_k = -(4 / dx^2) sin^2(k pi / 2n) <= 0 of the discrete Neumann
    Laplacian, k = 0..n-1; the form 1 - cos(k pi / n) would cancel for k << n."""
    s = np.sin(np.arange(grid.n) * (0.5 * np.pi / grid.n))
    return -(4.0 / (grid.dx * grid.dx)) * (s * s)


def mode_vector(grid: Grid, k: int) -> np.ndarray:
    return np.cos(k * np.pi * (np.arange(grid.n) + 0.5) / grid.n)


def neumann_modes(g: Grid) -> list[tuple[float, Field]]:
    """All discrete Neumann eigenpairs (a_k, phi_k), k = 0..n-1.

    phi_0 is the constant mode with a_0 = 0; the modes are pairwise
    orthogonal under the weighted inner product dx * sum(f * g).
    """
    eigs = mode_eigenvalues(g)
    return [(float(eigs[k]), Field(mode_vector(g, k), g)) for k in range(g.n)]
