"""Norms, initial-layer constructors, manifold distances and rate studies.

The central experiment compares the relaxation-time and limiting trajectories
on a shared grid and step schedule, measures per-component sup-in-time errors,
and fits log-log slopes against the relaxation parameter.  Error floors below
which round-off dominates are excluded from the fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, _laplacian
from .linsolve import _mode_rates, _source_resolvent, from_modes, to_modes
from .model import ModelParams
from .sim_eps import Trajectory, initial_stable_dt, run_batch

__all__ = [
    "InitialLayerSpec",
    "RateReport",
    "TrajectoryComparison",
    "norm_l2",
    "norm_h1",
    "norm_h2_proxy",
    "manifold_projection",
    "initial_layer_size",
    "make_layer_data",
    "manifold_distance",
    "manifold_distance_study",
    "compare_trajectories",
    "rate_study",
    "semigroup_identity_residual",
    "fit_slope",
]

ERROR_FLOOR = 1e-9


def norm_l2(f: Field) -> float:
    """sqrt(dx * sum f_j^2), the cell-centered L2 norm."""
    return float(_row_norms(f.values, f.grid.dx, 0))


def norm_h1(f: Field) -> float:
    """L2 norm of the value plus the face-centered first difference."""
    return float(_row_norms(f.values, f.grid.dx, 1))


def norm_h2_proxy(f: Field) -> float:
    """H1 plus the L2 norm of the discrete Laplacian."""
    return float(_row_norms(f.values, f.grid.dx, 2))


def _row_norms(x: np.ndarray, dx: float, order: int) -> np.ndarray:
    # the L2 (order 0), H1 (1) or H2-proxy (2) norm of each row along the last axis
    if order == 0:
        return np.sqrt(dx * np.sum(x * x, axis=-1))
    d = np.diff(x) / dx
    sq = dx * np.sum(x**2, axis=-1) + dx * np.sum(d * d, axis=-1)
    if order == 2:
        lap = _laplacian(x, dx)
        sq = sq + dx * np.sum(lap * lap, axis=-1)
    return np.sqrt(sq)


@dataclass(frozen=True)
class InitialLayerSpec:
    """Recipe for slow-chemical data at a prescribed distance eps**gamma from
    the critical manifold; gamma="on_manifold" puts the datum exactly on it."""

    gamma: float | str
    eps: float

    def __post_init__(self):
        if isinstance(self.gamma, str):
            if self.gamma != "on_manifold":
                raise ValueError(f"unknown layer symbol {self.gamma!r}")
        elif not self.gamma >= 0:  # nan as well
            raise ValueError(f"gamma must be non-negative, got {self.gamma!r}")
        if not 0.0 < self.eps < np.inf:
            raise ValueError("eps must be finite and positive")


def manifold_projection(u: Field, p: ModelParams) -> Field:
    """Chemical v with (u, v) on the discrete critical manifold."""
    return Field(_source_resolvent(p.lambda3, p.mu3, p.zeta3, u.grid, u.values, 3), u.grid)


def _layer_residual(u3: np.ndarray, v3: np.ndarray, p: ModelParams, dx: float) -> np.ndarray:
    # lambda3 * Lap v3 - mu3 * v3 + zeta3 * u3, along the last axis
    return p.lambda3 * _laplacian(v3, dx) - p.mu3 * v3 + p.zeta3 * u3


def initial_layer_size(u30: Field, v30: Field, p: ModelParams) -> float:
    """L2 norm of lambda3 * Lap v30 - mu3 * v30 + zeta3 * u30."""
    if u30.grid != v30.grid:
        raise ValueError("u30 and v30 live on different grids")
    dx = v30.grid.dx
    return float(_row_norms(_layer_residual(u30.values, v30.values, p, dx), dx, 0))


def make_layer_data(u30: Field, spec: InitialLayerSpec, p: ModelParams) -> Field:
    """Slow-chemical datum with layer size eps**gamma.

    The perturbation, the first cosine mode, is normalised so its image under
    lambda3*Lap - mu3*I has unit L2 norm, which makes the realised layer size
    exact up to the projection residual.
    """
    grid = u30.grid
    base = manifold_projection(u30, p)
    if spec.gamma == "on_manifold":
        return base
    w = Field(np.cos(np.pi * grid.centers / grid.L), grid)
    image = p.lambda3 * _laplacian(w.values, grid.dx) - p.mu3 * w.values
    scale = norm_l2(Field(image, grid))
    if scale == 0.0:  # the image's squares underflow
        raise ValueError(f"lambda3={p.lambda3:g} and mu3={p.mu3:g} give the layer "
                         "perturbation a zero operator image: its squares underflow")
    delta = spec.eps ** spec.gamma
    return Field(base.values + (delta / scale) * w.values, grid)


def manifold_distance(s, p: ModelParams) -> float:
    """Instantaneous distance of a state from the critical manifold."""
    return initial_layer_size(s.u3, s.v3, p)


def manifold_distance_study(u10: Field, u20: Field, u30: Field, gamma: float | str,
                            eps_list, T: float, p: ModelParams, output_times, *,
                            cfl: float = 0.45, chemical_mode: str = "mixed"):
    """Distance from the critical manifold at each output time, per eps.

    Each eps run starts from slow-chemical data at layer size eps**gamma.
    The runs advance as one batch, each member at its own stable step, so
    each is bitwise its own ``run_eps``.  Returns the snapshot times, the
    (len(eps_list), len(times)) distances and each run's initial layer size.
    """
    eps = [float(e) for e in eps_list]
    if not eps:
        raise ValueError("eps_list must not be empty")
    v30s = [make_layer_data(u30, InitialLayerSpec(gamma, e), p) for e in eps]
    trajs = run_batch((u10, u20, u30), v30s, eps, T, p, output_times, cfl=cfl,
                      chemical_mode=chemical_mode)
    # the (B, n_times, n) predator and slow-chemical rows of every snapshot
    u3, v3 = (np.array([tr.values[:, i] for tr in trajs]) for i in (2, 5))
    dist = _row_norms(_layer_residual(u3, v3, p, u10.grid.dx), u10.grid.dx, 0)
    eps_in = np.array([initial_layer_size(u30, v30, p) for v30 in v30s])
    return trajs[0].times, dist, eps_in


@dataclass
class TrajectoryComparison:
    """Sup-in-time errors between matched trajectories.

    Species errors are L2; the fast chemicals use the H2 proxy; the slow
    chemical is reported both in sup-in-time H1 and in L2-in-time of the H2
    proxy (trapezoidal in time).
    """

    err_u1: float
    err_u2: float
    err_u3: float
    err_v1: float
    err_v2: float
    err_v3_h1: float
    err_v3_l2h2: float

    def as_dict(self) -> dict[str, float]:
        return {
            "err_u1": self.err_u1,
            "err_u2": self.err_u2,
            "err_u3": self.err_u3,
            "err_v1": self.err_v1,
            "err_v2": self.err_v2,
            "err_v3_h1": self.err_v3_h1,
            "err_v3_l2h2": self.err_v3_l2h2,
        }


def compare_trajectories(A: Trajectory, B: Trajectory) -> TrajectoryComparison:
    """Per-component errors between a relaxation-time run and a limit run."""
    if len(A.times) != len(B.times) or not np.allclose(A.times, B.times):
        raise ValueError("trajectories have different snapshot schedules")
    if A.grid != B.grid:
        raise ValueError("trajectories live on different grids")
    # each component's norm of each snapshot's difference, from one (T, 6, n) array
    d, dx = A.values - B.values, A.grid.dx
    species = _row_norms(d[:, :3], dx, 0)
    chem_h2 = _row_norms(d[:, 3:], dx, 2)
    sup = [*species.max(0).tolist(), *chem_h2[:, :2].max(0).tolist(),
           float(_row_norms(d[:, 5], dx, 1).max())]
    v3_h2_sq = [h ** 2 for h in chem_h2[:, 2].tolist()]
    l2h2 = float(np.sqrt(np.trapezoid(v3_h2_sq, A.times) if len(A.times) > 1 else v3_h2_sq[0]))
    return TrajectoryComparison(*sup, l2h2)


def fit_slope(eps: np.ndarray, err: np.ndarray):
    """Least-squares slope of log(err) vs log(eps) above ERROR_FLOOR.

    Returns (slope, residual, n_points); raises ValueError when fewer than
    three points sit above the floor.
    """
    eps = np.asarray(eps, dtype=float)
    err = np.asarray(err, dtype=float)
    keep = err > ERROR_FLOOR
    if keep.sum() < 3:
        raise ValueError(
            f"only {int(keep.sum())} error values above the floor {ERROR_FLOOR:g}; "
            "need at least 3 to fit a rate"
        )
    x = np.log(eps[keep])
    y = np.log(err[keep])
    coef, res, *_ = np.polyfit(x, y, 1, full=True)
    residual = float(res[0]) if res.size else 0.0
    return float(coef[0]), residual, int(keep.sum())


@dataclass
class RateReport:
    """Per-eps error tables with fitted slopes and realised layer sizes."""

    eps_list: np.ndarray
    eps_in: np.ndarray
    errors: dict[str, np.ndarray]
    slopes: dict[str, tuple[float, float, int]]
    gamma: float | str

    COLUMNS = ("err_u1", "err_u2", "err_u3", "err_v1", "err_v2", "err_v3_h1", "err_v3_l2h2")

    def to_csv(self) -> str:
        lines = ["eps,eps_in," + ",".join(self.COLUMNS)]
        for i, e in enumerate(self.eps_list):
            row = [f"{e:.17g}", f"{self.eps_in[i]:.17g}"]
            row += [f"{self.errors[c][i]:.17g}" for c in self.COLUMNS]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        lines = [f"gamma = {self.gamma}", f"floor = {ERROR_FLOOR:g}", "fitted slopes:"]
        for name, (slope, res, npts) in sorted(self.slopes.items()):
            lines.append(
                f"  {name}: slope = {slope:.4f}  residual = {res:.3e}  points = {npts}"
            )
        return "\n".join(lines) + "\n"


def rate_study(u10: Field, u20: Field, u30: Field, gamma: float | str,
               eps_list, T: float, p: ModelParams, *, n_outputs: int = 64,
               cfl: float = 0.45, chemical_mode: str = "mixed") -> RateReport:
    """Sweep the relaxation parameter and fit per-component convergence rates.

    Each relaxation-time run and its paired limit run share one grid and one
    fixed step schedule, so the discretization error cancels in their
    difference and only the relaxation effect remains.

    On-manifold studies use a single schedule (the measured differences are
    schedule-independent there) and one shared limit run.  Layer studies use
    the per-eps schedule dt_eps = dt0 * sqrt(eps / eps_list[0]) and give each
    eps run its own limit run: the species stages feel the decaying layer for
    one step, so a schedule shrinking like sqrt(eps) realises the
    sqrt(eps) * eps_in layer contribution of the rate bounds; a fixed schedule
    would inflate it to O(dt * eps_in) and a layer-resolving schedule would
    suppress it to O(eps * eps_in).  Either way all runs advance together as
    one batch, each member with its own step size.
    """
    eps_list = np.asarray(list(eps_list), dtype=float)
    if eps_list.size < 3 or np.any(np.diff(eps_list) >= 0) or np.any(eps_list <= 0):
        raise ValueError("eps_list must be strictly decreasing with at least 3 entries")
    if not 0.0 < T < np.inf:
        raise ValueError("rate study needs a finite T > 0")
    eps = [float(e) for e in eps_list]
    v30s = [make_layer_data(u30, InitialLayerSpec(gamma, e), p) for e in eps]
    # base fixed step, sized once from the initial state with a safety margin
    dt0 = initial_stable_dt(u10, u20, u30, v30s[0], p, cfl)

    k = len(eps)
    if gamma == "on_manifold":
        limits, dts = [None], dt0
    else:
        # each eps run gets its own limit run, both at dt_eps
        limits, dts = [None] * k, [dt0 * float(np.sqrt(e / eps[0])) for e in eps] * 2
    trajs = run_batch((u10, u20, u30), [*v30s, *limits], [*eps, *limits], T, p,
                      np.linspace(0.0, T, n_outputs), dt=dts, chemical_mode=chemical_mode)

    eps_in = np.array([initial_layer_size(u30, v30, p) for v30 in v30s])
    limit_runs = trajs[k:] * k if gamma == "on_manifold" else trajs[k:]
    comps = [compare_trajectories(a, b).as_dict() for a, b in zip(trajs[:k], limit_runs)]
    errors = {c: np.array([d[c] for d in comps]) for c in RateReport.COLUMNS}

    slopes = {}
    for c in RateReport.COLUMNS:
        try:
            slopes[c] = fit_slope(eps_list, errors[c])
        except ValueError:
            pass
    return RateReport(eps_list, eps_in, errors, slopes, gamma)


def semigroup_identity_residual(f: Field, lam: float, mu: float, S: float) -> float:
    """L2 gap between the resolvent solve and its truncated semigroup integral.

    Per mode the truncated integral of e^{s(lam a_k - mu)} over [0, S] misses
    1/(mu - lam a_k) by exactly e^{-(mu - lam a_k) S}/(mu - lam a_k), so the
    result is bounded by (e^{-mu S}/mu) * ||f||_L2.
    """
    if S <= 0:
        raise ValueError("S must be positive")
    b = _mode_rates(lam, mu, f.grid.L, f.grid.n)
    # per-mode difference of the two reconstructions, with the common factor
    # c_k/b_k shared so the tail e^{-b_k S} is not drowned by subtraction noise
    gap = to_modes(f.values) / b * (1.0 + np.expm1(-b * S))
    return norm_l2(Field(from_modes(gap), f.grid))
