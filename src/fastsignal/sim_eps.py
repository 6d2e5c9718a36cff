"""Time integrator for the relaxation-time system: three parabolic species
equations with chemotaxis, two elliptic chemicals, and one slow-evolution
parabolic chemical.

One step applies a first-order splitting: an explicit Heun (SSP-RK2) update of
the species transport + reaction, a refresh of the elliptic chemicals at the
new densities, and an exponential update of the slow chemical that is exact
per mode for a source varying linearly over the step.  Species stay
non-negative under the stable_dt bound; negative round-off is clipped and
accounted.

The stepping kernel is batch-native: one step advances B members that share
dt, held as (B, 3, n) species and chemical arrays.  A member is either a
relaxation-time run with its own eps or a run of the limiting system (eps is
None), whose slow chemical is elliptic as well; a per-member mask says which
chemicals are elliptic.  Single runs are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, _chemotaxis_div, _laplacian
from .linsolve import (
    _exp_factors,
    _exp_step,
    _solve_tridiagonal_values,
    HelmholtzOperator,
    helmholtz_solve,
)
from .model import ModelParams, kinetics

__all__ = [
    "State",
    "Trajectory",
    "BlowUpError",
    "StabilityError",
    "default_initial_fields",
    "initial_stable_dt",
    "stable_dt",
    "step",
    "run_eps",
]


class BlowUpError(RuntimeError):
    """A field became non-finite during time stepping."""

    def __init__(self, name: str, t: float):
        super().__init__(f"blow-up detected in {name} at t={t:.6g}")
        self.field_name = name
        self.t = t


class StabilityError(RuntimeError):
    """A prescribed fixed step exceeds the current stability bound."""


@dataclass(frozen=True)
class State:
    """Full solution of one run at one time; eps is None for the limiting system."""

    t: float
    eps: float | None
    u1: Field
    u2: Field
    u3: Field
    v1: Field
    v2: Field
    v3: Field

    @property
    def grid(self) -> Grid:
        return self.u1.grid


@dataclass
class Trajectory:
    """Snapshots of one run at the requested output times plus stepping diagnostics.

    The diagnostics are aggregates over the whole run: the step count, the
    worst per-step mass-balance residual and the mass clipped per species.
    They are accumulated while stepping, so memory does not grow with the
    number of steps.
    """

    times: np.ndarray
    states: list
    clipped_mass: np.ndarray
    initial_mass: np.ndarray
    n_steps: int
    max_balance_residual: float

    def spatial_means(self) -> np.ndarray:
        """Domain averages of (u1, u2, u3) at the snapshot times."""
        return np.array(
            [[s.u1.values.mean(), s.u2.values.mean(), s.u3.values.mean()] for s in self.states]
        )


def default_initial_fields(grid: Grid) -> tuple[Field, Field, Field]:
    """Default species data c_i + a_i cos(pi x / L); no-flux compatible."""
    x = grid.centers
    w = np.cos(np.pi * x / grid.L)
    return (
        Field(1.0 + 0.2 * w, grid),
        Field(1.0 - 0.2 * w, grid),
        Field(0.5 + 0.1 * w, grid),
    )


def _as_batch(x) -> np.ndarray:
    """(B, 3, n) array of a batch; a (3, n) array or three (n,) arrays are a batch of one."""
    x = np.asarray(x, dtype=float)
    return x if x.ndim == 3 else x[None]


def _grad_max(values: np.ndarray, dx: float) -> np.ndarray:
    # largest |difference| along the last axis, per leading index
    if values.shape[-1] < 2:
        return np.zeros(values.shape[:-1])
    return np.abs(np.diff(values)).max(-1) / dx


def _reaction_rate_bounds(p: ModelParams, m1, m2, m3):
    lam1 = p.alpha1 * (1.0 + 2.0 * m1 + p.beta1 * m2) + p.m1 * m3 / p.eta1
    lam2 = p.alpha2 * (1.0 + 2.0 * m2 + p.beta2 * m1) + p.m2 * m3 / p.eta2
    lam3 = p.gamma1 * p.m1 + p.gamma2 * p.m2 + p.k + 2.0 * p.l * m3
    return lam1, lam2, lam3


def _stable_dt_values(u, v, p: ModelParams, dx: float, cfl: float,
                      max_dt: float = np.inf):
    """Stable step of each member of a (B, 3, n) batch, shape (B,); a scalar
    for one (3, n) state."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")
    g = _grad_max(np.asarray(v, dtype=float), dx)
    g1, g2, g3 = g[..., 0], g[..., 1], g[..., 2]
    m = np.asarray(u, dtype=float).max(-1)
    r1, r2, r3 = _reaction_rate_bounds(p, m[..., 0], m[..., 1], m[..., 2])
    den1 = 2.0 * p.d1 + 2.0 * p.chi1 * g3 * dx + dx * dx * r1
    den2 = 2.0 * p.d2 + 2.0 * p.chi2 * g3 * dx + dx * dx * r2
    den3 = (
        2.0 * p.d3
        + 2.0 * (p.chi31 * g1 + p.chi32 * g2) * dx
        + dx * dx * r3
    )
    dt = cfl * dx * dx / np.maximum(np.maximum(den1, den2), den3)
    return np.minimum(dt, max_dt)


def stable_dt(s, p: ModelParams, cfl: float, max_dt: float = np.inf) -> float:
    """Largest explicit step for the species update, scaled by cfl.

    Bounds diffusion, the upwind chemotactic drift from the current chemical
    gradients, and a local Lipschitz estimate of the reaction terms; never
    exceeds max_dt (the output interval, when the caller has one).
    """
    return float(_stable_dt_values(
        (s.u1.values, s.u2.values, s.u3.values),
        (s.v1.values, s.v2.values, s.v3.values),
        p, s.grid.dx, cfl, max_dt,
    ))


def initial_stable_dt(u10: Field, u20: Field, u30: Field, v30: Field,
                      p: ModelParams, cfl: float) -> float:
    """stable_dt of the state a run starts from: the species data, v30, and
    the fast chemicals at their elliptic solves from the species data."""
    grid = u10.grid
    v1 = _solve_tridiagonal_values(p.lambda1, p.mu1, grid, p.zeta1 * u10.values)
    v2 = _solve_tridiagonal_values(p.lambda2, p.mu2, grid, p.zeta2 * u20.values)
    return float(_stable_dt_values((u10.values, u20.values, u30.values),
                                   (v1, v2, v30.values), p, grid.dx, cfl))


# the four chemotactic drifts: species _DRIFT_U[k] climbs chemical _DRIFT_V[k]
_DRIFT_U = np.array([0, 1, 2, 2])
_DRIFT_V = np.array([2, 2, 0, 1])


def _species_rhs(u, v, p: ModelParams, dx: float, scheme: str):
    """Species right-hand sides and reaction terms, both shaped like u (..., 3, n)."""
    f = np.stack(kinetics(u[..., 0, :], u[..., 1, :], u[..., 2, :], p), axis=-2)
    chi = np.array([[p.chi1], [p.chi2], [-p.chi31], [-p.chi32]])
    drift = _chemotaxis_div(u[..., _DRIFT_U, :], v[..., _DRIFT_V, :], chi, dx, scheme)
    d = np.array([[p.d1], [p.d2], [p.d3]])
    r = d * _laplacian(u, dx) + drift[..., :3, :]
    r[..., 2, :] += drift[..., 3, :]
    r += f
    return r, f


def _heun_species(u, v, p: ModelParams, dx: float, dt: float, scheme: str):
    """One SSP-RK2 step of the species subsystem with frozen chemicals.

    u and v are (..., 3, n).  Returns the pre-clip update and the time-centred
    reaction mass rate per species (transport contributes exactly zero total
    mass).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    r, fa = _species_rhs(u, v, p, dx, scheme)
    q, fb = _species_rhs(u + dt * r, v, p, dx, scheme)
    new = u + 0.5 * dt * (r + q)
    reaction_rate = dx * 0.5 * (fa.sum(-1) + fb.sum(-1))
    return new, reaction_rate


class _Stepper:
    """Array-level stepping kernel shared by both simulators.

    One step advances a batch of members that share dt.  ``eps`` holds each
    member's relaxation parameter, None marking a member of the limiting
    system; a single value is a batch of one.  Chemical i of member b is
    elliptic where ``elliptic[b, i]`` holds and follows the exponential update
    otherwise.
    """

    def __init__(self, grid: Grid, p: ModelParams, *, scheme: str = "upwind",
                 solver_method: str = "tridiagonal", solver_tol: float = 1e-10,
                 eps=None, chemical_mode: str = "mixed"):
        if chemical_mode not in ("mixed", "fully_parabolic"):
            raise ValueError(f"unknown chemical_mode {chemical_mode!r}")
        eps = [eps] if eps is None or np.ndim(eps) == 0 else list(eps)
        limit = np.array([e is None for e in eps])
        if chemical_mode == "fully_parabolic" and limit.all():
            raise ValueError("fully_parabolic mode needs a relaxation parameter")
        self.grid = grid
        self.p = p
        self.scheme = scheme
        self.solver_method = solver_method
        self.solver_tol = solver_tol
        self.eps = eps
        self.elliptic = np.column_stack(
            [limit | (chemical_mode == "mixed")] * 2 + [limit])
        self.clipped = np.zeros((len(eps), 3))
        self._lam = (p.lambda1, p.lambda2, p.lambda3)
        self._mu = (p.mu1, p.mu2, p.mu3)
        self._zeta = (p.zeta1, p.zeta2, p.zeta3)
        self._elliptic_rows = [np.flatnonzero(self.elliptic[:, i]) for i in range(3)]
        self._exp_rows = [np.flatnonzero(~self.elliptic[:, i]) for i in range(3)]
        self._exp_eps = [np.array([eps[b] for b in rows], dtype=float)[:, None]
                         for rows in self._exp_rows]
        # per chemical: the dt of the last exponential update and its factors
        self._factors = [(None, None)] * 3

    def member_label(self, b: int) -> str:
        return "limit run" if self.eps[b] is None else f"eps={self.eps[b]:g} run"

    def solve_elliptic(self, u: np.ndarray, which: int) -> np.ndarray:
        """Resolvent of chemical ``which`` for (n,) or (B, n) densities."""
        lam, mu, zeta = self._lam[which], self._mu[which], self._zeta[which]
        rhs = zeta * u
        if self.solver_method == "tridiagonal":
            # one multi-right-hand-side solve, right-hand sides as columns
            return _solve_tridiagonal_values(lam, mu, self.grid, rhs.T).T
        op = HelmholtzOperator(lam, mu, self.grid)
        rows = [
            helmholtz_solve(op, Field(r, self.grid), method=self.solver_method,
                            tol=self.solver_tol)[0].values
            for r in np.atleast_2d(rhs)
        ]
        return np.reshape(rows, rhs.shape)

    def _exp_chem(self, v: np.ndarray, u_old: np.ndarray, u_new: np.ndarray,
                  which: int, dt: float) -> np.ndarray:
        # v, u_old, u_new hold the rows of the members that update chemical
        # ``which`` exponentially
        lam, mu, zeta = self._lam[which], self._mu[which], self._zeta[which]
        last_dt, factors = self._factors[which]
        if dt != last_dt:
            factors = _exp_factors(lam, mu, self._exp_eps[which], dt, self.grid)
            self._factors[which] = (dt, factors)
        return _exp_step(factors, v, zeta * u_old, zeta * u_new)

    def advance_chemicals(self, u_old, u_new, v, dt: float) -> np.ndarray:
        """Chemicals of a batch after its species moved from u_old to u_new."""
        u_old, u_new, v = _as_batch(u_old), _as_batch(u_new), _as_batch(v)
        new_v = np.empty_like(v)
        for i in range(3):
            rows = self._elliptic_rows[i]
            if rows.size:
                new_v[rows, i] = self.solve_elliptic(u_new[rows, i], i)
            rows = self._exp_rows[i]
            if rows.size:
                new_v[rows, i] = self._exp_chem(v[rows, i], u_old[rows, i],
                                                u_new[rows, i], i, dt)
        return new_v

    def _check_finite(self, arrays: np.ndarray, prefix: str, t: float) -> None:
        bad = ~np.isfinite(arrays).all(-1)
        if bad.any():
            b, i = np.argwhere(bad)[0]
            raise BlowUpError(f"{prefix}{i + 1} ({self.member_label(b)})", t)

    def step(self, t: float, u, v, dt: float):
        """Advance every member of (u, v) by dt.

        Returns the new (B, 3, n) species and chemicals and the (B,)
        mass-balance residuals.
        """
        u, v = _as_batch(u), _as_batch(v)
        dx = self.grid.dx
        mass_old = u.sum(-1) * dx
        with np.errstate(over="ignore", invalid="ignore"):
            new_u, reaction_rate = _heun_species(u, v, self.p, dx, dt, self.scheme)
        self._check_finite(new_u, "u", t + dt)
        mass_pre = new_u.sum(-1) * dx
        scale = np.maximum(np.abs(mass_old), 1.0)
        residual = np.max(np.abs((mass_pre - mass_old) / dt - reaction_rate) / scale,
                          axis=-1)
        neg = new_u < 0.0
        if neg.any():
            for b, i in zip(*np.nonzero(neg.any(-1))):
                self.clipped[b, i] += -dx * new_u[b, i][neg[b, i]].sum()
            new_u = np.where(neg, 0.0, new_u)
        new_v = self.advance_chemicals(u, new_u, v, dt)
        self._check_finite(new_v, "v", t + dt)
        return new_u, new_v, residual


class _EpsStepper(_Stepper):
    def __init__(self, grid, p, eps, **kw):
        super().__init__(grid, p, eps=eps, **kw)


class _LimitStepper(_Stepper):
    def __init__(self, grid, p, **kw):
        super().__init__(grid, p, eps=None, **kw)


def _states(stepper: _Stepper, t: float, u: np.ndarray, v: np.ndarray) -> list:
    """One State per member of the (B, 3, n) batch (u, v) at time t."""
    g = stepper.grid
    return [State(t, eps, *(Field(x, g) for x in (*u[b], *v[b])))
            for b, eps in enumerate(stepper.eps)]


def step(s: State, p: ModelParams, dt: float, *, scheme: str = "upwind",
         chemical_mode: str = "mixed", solver_method: str = "tridiagonal",
         solver_tol: float = 1e-10) -> State:
    """One split step of the relaxation-time system, or of the limiting
    system when s.eps is None."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    st = _Stepper(s.grid, p, eps=s.eps, scheme=scheme, chemical_mode=chemical_mode,
                  solver_method=solver_method, solver_tol=solver_tol)
    u = (s.u1.values, s.u2.values, s.u3.values)
    v = (s.v1.values, s.v2.values, s.v3.values)
    u, v, _ = st.step(s.t, u, v, dt)
    return _states(st, s.t + dt, u, v)[0]


def _normalise_output_times(T: float, output_times) -> np.ndarray:
    if output_times is None:
        output_times = np.linspace(0.0, T, 64) if T > 0 else np.array([0.0])
    times = np.unique(np.asarray(output_times, dtype=float))
    if times.size == 0 or times[0] < 0 or times[-1] > T + 1e-12 * max(T, 1.0):
        raise ValueError("output times must lie inside [0, T]")
    if times[0] > 0.0:
        times = np.concatenate([[0.0], times])
    return times


def _integrate(stepper: _Stepper, u, v, T: float, output_times, *, cfl: float,
               dt_fixed: float | None) -> list:
    """Step every member of the batch (u, v) from t = 0 to T.

    Returns one Trajectory per member.  All members share the step schedule:
    the fixed dt, checked against every member's stability bound, or the
    smallest member's stable step.
    """
    u, v = _as_batch(u), _as_batch(v)
    times = _normalise_output_times(T, output_times)
    dx = stepper.grid.dx
    p = stepper.p

    snapshots = [_states(stepper, 0.0, u, v)]
    initial_mass = u.sum(-1) * dx
    n_steps = 0
    max_residual = np.zeros(u.shape[0])

    t = 0.0
    for target in times[1:]:
        while t < target:
            if dt_fixed is not None:
                cap = _stable_dt_values(u, v, p, dx, 1.0)
                over = np.flatnonzero(dt_fixed > cap * (1.0 + 1e-9))
                if over.size:
                    b = over[0]
                    raise StabilityError(
                        f"fixed dt {dt_fixed:.3e} exceeds the stability bound "
                        f"{cap[b]:.3e} of the {stepper.member_label(b)} at t={t:.6g}"
                    )
                nominal = dt_fixed
            else:
                nominal = float(_stable_dt_values(u, v, p, dx, cfl).min())
            remaining = target - t
            dt = remaining if remaining <= nominal * (1.0 + 1e-9) else nominal
            u, v, residual = stepper.step(t, u, v, dt)
            t += dt
            n_steps += 1
            np.maximum(max_residual, residual, out=max_residual)
        t = target
        snapshots.append(_states(stepper, t, u, v))

    return [
        Trajectory(
            times=times,
            states=[states[b] for states in snapshots],
            clipped_mass=stepper.clipped[b].copy(),
            initial_mass=initial_mass[b],
            n_steps=n_steps,
            max_balance_residual=float(max_residual[b]),
        )
        for b in range(u.shape[0])
    ]


def _run_members(stepper: _Stepper, u0, v30s, T: float, output_times, *,
                 cfl: float = 0.9, dt: float | None = None) -> list:
    """Integrate every member of ``stepper``'s batch on one step schedule.

    All members start from the species data u0 = (u10, u20, u30), with the
    fast chemicals at their elliptic solves.  v30s[b] is the slow-chemical
    datum of eps member b and None for a limit member, whose v3 starts from
    its elliptic solve too.  Returns one Trajectory per member.
    """
    if T < 0:
        raise ValueError("T must be non-negative")
    if len(v30s) != len(stepper.eps):
        raise ValueError("need one slow-chemical datum (or None) per member")
    data = [*u0, *(f for f in v30s if f is not None)]
    if any(f.grid != stepper.grid for f in data):
        raise ValueError("initial fields live on different grids")
    if min(f.values.min() for f in data) < 0:
        raise ValueError("initial data must be non-negative")
    u = np.repeat(np.stack([f.values for f in u0])[None], len(stepper.eps), axis=0)
    v = np.empty_like(u)
    v[:, 0] = stepper.solve_elliptic(u[:, 0], 0)
    v[:, 1] = stepper.solve_elliptic(u[:, 1], 1)
    for b, v30 in enumerate(v30s):
        v[b, 2] = stepper.solve_elliptic(u[b, 2], 2) if v30 is None else v30.values
    return _integrate(stepper, u, v, T, output_times, cfl=cfl, dt_fixed=dt)


def run_eps(u10: Field, u20: Field, u30: Field, v30: Field, eps: float, T: float,
            p: ModelParams, output_times=None, *, cfl: float = 0.9,
            dt: float | None = None, scheme: str = "upwind",
            chemical_mode: str = "mixed", solver_method: str = "tridiagonal",
            solver_tol: float = 1e-10) -> Trajectory:
    """Integrate the relaxation-time system from t = 0 to T.

    The elliptic chemicals are initialised from the species data; v30 is the
    given datum for the slow chemical.  Passing ``dt`` forces a fixed step
    schedule (still shortened to land exactly on output times), which lets a
    paired limit run share the identical schedule.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    st = _EpsStepper(u10.grid, p, eps, scheme=scheme, chemical_mode=chemical_mode,
                     solver_method=solver_method, solver_tol=solver_tol)
    return _run_members(st, (u10, u20, u30), [v30], T, output_times, cfl=cfl,
                        dt=dt)[0]
