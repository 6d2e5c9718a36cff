"""Time integrator for the relaxation-time system: three parabolic species
equations with chemotaxis, two elliptic chemicals, and one slow-evolution
parabolic chemical.

One step applies a first-order splitting: an explicit Heun (SSP-RK2) update of
the species reaction + transport, one donor-cell face flux per species, then
the chemicals in the cosine modes of the grid, which diagonalise their
operators: the elliptic ones solved at the new densities, and the slow one
updated exponentially, exactly per mode for a source varying linearly over the
step.  Species stay non-negative under the stable_dt bound; negative round-off
is clipped and accounted.

The stepping kernel is batch-native: one step advances B members, each by its
own dt, held as (B, 3, n) species and chemical arrays.  A member is either a
relaxation-time run with its own eps or a run of the limiting system (eps is
None), whose slow chemical is elliptic as well; a per-member mask says which
chemicals are elliptic.  Single runs are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid
from .linsolve import _exp_factors, _mode_rates, _spectral_resolvent, from_modes, to_modes
from .model import ModelParams

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
    """A step cannot advance a run: a prescribed fixed step exceeds the
    current stability bound, or a member's step is too small to move its
    clock to the next output time."""


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


def _stable_dt_values(u, v, p: ModelParams, dx: float, cfl: float):
    """Stable step of each member of a (B, 3, n) batch, shape (B,); a scalar
    for one (3, n) state.  Each member's bound is evaluated on Python floats,
    whose arithmetic is numpy's elementwise arithmetic."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")
    u = np.asarray(u, dtype=float)
    m = u.max(-1).reshape(-1, 3).tolist()
    g = _grad_max(np.asarray(v, dtype=float), dx).reshape(-1, 3).tolist()
    dts = []
    for (m1, m2, m3), (g1, g2, g3) in zip(m, g):
        r1, r2, r3 = _reaction_rate_bounds(p, m1, m2, m3)
        den1 = 2.0 * p.d1 + 2.0 * p.chi1 * g3 * dx + dx * dx * r1
        den2 = 2.0 * p.d2 + 2.0 * p.chi2 * g3 * dx + dx * dx * r2
        den3 = (
            2.0 * p.d3
            + 2.0 * (p.chi31 * g1 + p.chi32 * g2) * dx
            + dx * dx * r3
        )
        dts.append(cfl * dx * dx / max(den1, den2, den3))
    return np.array(dts) if u.ndim == 3 else np.float64(dts[0])


def stable_dt(s, p: ModelParams, cfl: float) -> float:
    """Largest explicit step for the species update, scaled by cfl.

    Bounds diffusion, the upwind chemotactic drift from the current chemical
    gradients, and a local Lipschitz estimate of the reaction terms.
    """
    return float(_stable_dt_values(
        (s.u1.values, s.u2.values, s.u3.values),
        (s.v1.values, s.v2.values, s.v3.values),
        p, s.grid.dx, cfl,
    ))


def initial_stable_dt(u10: Field, u20: Field, u30: Field, v30: Field,
                      p: ModelParams, cfl: float) -> float:
    """stable_dt of the state a run starts from: the species data, v30, and
    the fast chemicals at their elliptic solves from the species data."""
    grid = u10.grid
    v1 = _spectral_resolvent(p.lambda1, p.mu1, grid, p.zeta1 * u10.values)
    v2 = _spectral_resolvent(p.lambda2, p.mu2, grid, p.zeta2 * u20.values)
    return float(_stable_dt_values((u10.values, u20.values, u30.values),
                                   (v1, v2, v30.values), p, grid.dx, cfl))


def _species_planes(p: ModelParams, b: int, n: int, dx: float) -> dict:
    """Full-shape coefficient planes of a species-major batch: the prey pair's
    m, eta, alpha, beta and gamma as (2, b, n), and on the faces d / dx**2 per
    species as (3, b, n - 1) and chi / dx**2 per drift as (4, b, n - 1)."""
    rows = {k: [getattr(p, k + "1"), getattr(p, k + "2")]
            for k in ("m", "eta", "alpha", "beta", "gamma")}
    planes = {k: np.full((2, b, n), np.reshape(r, (-1, 1, 1))) for k, r in rows.items()}
    for k, r in (("d", [p.d1, p.d2, p.d3]), ("chi", [p.chi1, p.chi2, -p.chi31, -p.chi32])):
        planes[k] = np.full((len(r), b, n - 1), np.reshape(r, (-1, 1, 1)) / (dx * dx))
    return planes


def _species_rates(u, c: dict, p: ModelParams) -> np.ndarray:
    """kinetics of species-major (3, ...) densities in its operation order,
    both prey rates as one plane with the coefficient planes c."""
    x, u3 = u[:2], u[2]
    h = c["m"] * x / (c["eta"] + x)
    f = np.empty_like(u)
    np.subtract(c["alpha"] * x * (1.0 - x - c["beta"] * x[::-1]), h * u3, out=f[:2])
    gh = c["gamma"] * h
    np.subtract((gh[0] + gh[1] - p.k) * u3, p.l * u3 * u3, out=f[2])
    return f


def _heun_species(u, v, p: ModelParams, dx: float, dt, c: dict):
    """One SSP-RK2 step of the species subsystem with frozen chemicals.

    u and v are (B, 3, n); dt is a float or a (B, 1, 1) column of per-member
    steps; c holds _species_planes(p, B, n, dx).  Returns the pre-clip update
    and the time-centred (B, 3) reaction mass rate per species (transport
    contributes exactly zero total mass).  Works on species-major (3, B, n)
    copies.  A stage's transport is the divergence of one face flux per
    species, a * x[j + 1] + bm * x[j]: the donor-cell drifts up v3, v3, v1
    and v2, and the mirrored-ghost Laplacian as (d / dx**2)(x[j + 1] - x[j]).
    a >= 0 and bm <= 0 depend only on v, so both stages share them."""
    us = np.ascontiguousarray(np.transpose(u, (1, 0, 2)), dtype=float)
    if np.ndim(dt):
        dt = np.reshape(dt, (1, -1, 1))
    vs = np.transpose(v, (1, 0, 2))
    cg = c["chi"] * (vs[..., 1:] - vs[..., :-1])[[2, 2, 0, 1]]
    up, down = np.maximum(cg, 0.0), np.minimum(cg, 0.0)
    a, bm = up[:3] + c["d"], down[:3] - c["d"]
    a[2] += up[3]
    bm[2] += down[3]

    def rhs(x):
        r = _species_rates(x, c, p)
        f_mass = r.sum(-1)
        flux = a * x[..., 1:] + bm * x[..., :-1]
        r[..., :-1] += flux
        r[..., 1:] -= flux
        return r, f_mass

    r, fa = rhs(us)
    q, fb = rhs(us + dt * r)
    new = us + 0.5 * dt * (r + q)
    reaction_rate = dx * 0.5 * (fa + fb)
    return np.ascontiguousarray(new.transpose(1, 0, 2)), reaction_rate.T


def _as_slice(rows: np.ndarray):
    """A slice for sorted contiguous indices, else the index array itself."""
    if rows[-1] - rows[0] + 1 == rows.size:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


class _Stepper:
    """Array-level stepping kernel shared by both simulators.

    One step advances some or all members of a batch, each by its own dt.
    ``eps`` holds each member's relaxation parameter, None marking a member of
    the limiting system; a single value is a batch of one.  Chemical i of
    member b is elliptic where ``elliptic[b, i]`` holds and follows the
    exponential update otherwise.
    """

    def __init__(self, grid: Grid, p: ModelParams, *, eps=None,
                 chemical_mode: str = "mixed"):
        if chemical_mode not in ("mixed", "fully_parabolic"):
            raise ValueError(f"unknown chemical_mode {chemical_mode!r}")
        eps = [eps] if eps is None or np.ndim(eps) == 0 else list(eps)
        limit = np.array([e is None for e in eps])
        if chemical_mode == "fully_parabolic" and limit.all():
            raise ValueError("fully_parabolic mode needs a relaxation parameter")
        self.grid = grid
        self.p = p
        self.eps = eps
        self.elliptic = np.column_stack(
            [limit | (chemical_mode == "mixed")] * 2 + [limit])
        self.clipped = np.zeros((len(eps), 3))
        self._lam = (p.lambda1, p.lambda2, p.lambda3)
        self._mu = (p.mu1, p.mu2, p.mu3)
        self._zeta = np.array([[p.zeta1], [p.zeta2], [p.zeta3]])
        self._rates = np.stack([_mode_rates(lam, mu, grid.L, grid.n)
                                for lam, mu in zip(self._lam, self._mu)])
        self._layouts = {}
        self._planes = {}  # batch size -> _species_planes

    def member_label(self, b: int) -> str:
        return "limit run" if self.eps[b] is None else f"eps={self.eps[b]:g} run"

    def _layout(self, members) -> list:
        """For ``members`` (slice(None) for the whole batch, or an index
        array): the exponential updates as (chemical, rows, factor cache).
        Contiguous rows are slices, which index by view."""
        key = None if isinstance(members, slice) else members.tobytes()
        if key not in self._layouts:
            ids = np.arange(len(self.eps))[members]
            exps = []
            for i, elliptic in enumerate(self.elliptic[ids].T):
                rows = np.flatnonzero(~elliptic)
                if rows.size:
                    eps = np.array([self.eps[b] for b in ids[rows]], dtype=float)[:, None]
                    # the rows' eps, then the dts and (decay, gain, ramp) factors in use
                    exps.append((i, _as_slice(rows), [eps, None, None]))
            self._layouts[key] = exps
        return self._layouts[key]

    def solve_elliptic(self, u: np.ndarray, which: int) -> np.ndarray:
        """Resolvent of chemical ``which`` for (n,) or (B, n) densities."""
        return _spectral_resolvent(self._lam[which], self._mu[which], self.grid,
                                   self._zeta[which] * u)

    def advance_chemicals(self, u_old, u_new, v, dt, members=slice(None)) -> np.ndarray:
        """Chemicals (B, 3, n) of ``members`` after their species moved from
        u_old to u_new by dt (one value, or an array of one per member).

        One forward cosine-mode transform takes every new source, plus v and
        the old source of the exponentially updated rows, and one inverse
        returns all three chemicals."""
        exps = self._layout(members)
        sources = (self._zeta * u_new).reshape(-1, u_new.shape[-1])
        stack = [sources]
        for i, rows, _ in exps:
            stack += [v[rows, i], self._zeta[i] * u_old[rows, i]]
        modes = to_modes(np.concatenate(stack) if exps else sources)
        s1 = modes[:len(sources)].reshape(u_new.shape)
        new = s1 / self._rates
        start = len(sources)
        for i, rows, cache in exps:
            eps, last, factors = cache
            dts = dt[rows].tolist() if isinstance(dt, np.ndarray) else [dt] * len(eps)
            if dts != last:
                # recomputed only when some row's dt changed
                factors = _exp_factors(self._lam[i], self._mu[i], eps,
                                       np.array(dts)[:, None], self.grid)
                cache[1:] = dts, factors
            decay, gain, ramp = factors
            c, s0 = modes[start:start + 2 * len(eps)].reshape(2, len(eps), -1)
            start += 2 * len(eps)
            new[rows, i] = decay * c + gain * s0 + ramp * (s1[rows, i] - s0)
        return from_modes(new)

    def _check_finite(self, arrays: np.ndarray, prefix: str, t, dt, members) -> None:
        if not np.isfinite(arrays).all():
            b, i = np.argwhere(~np.isfinite(arrays).all(-1))[0]
            t_new = float(np.broadcast_to(np.add(t, dt), arrays.shape[:1])[b])
            label = self.member_label(np.arange(len(self.eps))[members][b])
            raise BlowUpError(f"{prefix}{i + 1} ({label})", t_new)

    def step(self, t, u, v, dt, members=slice(None)):
        """Advance ``members`` of the batch (slice(None) for all, or an index
        array), whose species and chemicals are (u, v), from their times t by
        their steps dt.

        t and dt are each one value or an array of one value per member.
        Returns the new (B, 3, n) species and chemicals and the (B,)
        mass-balance residuals of the stepped members.
        """
        u, v = _as_batch(u), _as_batch(v)
        per_member = isinstance(dt, np.ndarray)
        dt_col = dt[:, None] if per_member else dt
        dx = self.grid.dx
        mass_old = u.sum(-1) * dx
        if len(u) not in self._planes:
            self._planes[len(u)] = _species_planes(self.p, len(u), self.grid.n, dx)
        with np.errstate(over="ignore", invalid="ignore"):
            new_u, reaction_rate = _heun_species(
                u, v, self.p, dx, dt_col[..., None] if per_member else dt,
                self._planes[len(u)])
        self._check_finite(new_u, "u", t, dt, members)
        mass_pre = new_u.sum(-1) * dx
        scale = np.maximum(np.abs(mass_old), 1.0)
        residual = np.max(np.abs((mass_pre - mass_old) / dt_col - reaction_rate) / scale,
                          axis=-1)
        neg = new_u < 0.0
        if neg.any():
            ids = np.arange(len(self.eps))[members]
            for b, i in zip(*np.nonzero(neg.any(-1))):
                self.clipped[ids[b], i] += -dx * new_u[b, i][neg[b, i]].sum()
            new_u = np.where(neg, 0.0, new_u)
        new_v = self.advance_chemicals(u, new_u, v, dt, members)
        self._check_finite(new_v, "v", t, dt, members)
        return new_u, new_v, residual


class _EpsStepper(_Stepper):
    def __init__(self, grid, p, eps, **kw):
        super().__init__(grid, p, eps=eps, **kw)


class _LimitStepper(_Stepper):
    def __init__(self, grid, p, **kw):
        super().__init__(grid, p, eps=None, **kw)


def _states(stepper: _Stepper, t: float, u: np.ndarray, v: np.ndarray) -> list:
    """One State per member of the (B, 3, n) batch (u, v) at time t, holding
    copies: a step of part of the batch writes into u and v."""
    g = stepper.grid
    return [State(t, eps, *(Field(x, g) for x in (*u[b].copy(), *v[b].copy())))
            for b, eps in enumerate(stepper.eps)]


def step(s: State, p: ModelParams, dt: float, *, chemical_mode: str = "mixed") -> State:
    """One split step of the relaxation-time system, or of the limiting
    system when s.eps is None."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    st = _Stepper(s.grid, p, eps=s.eps, chemical_mode=chemical_mode)
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
               dt_fixed=None) -> list:
    """Step every member of the batch (u, v) from t = 0 to T.

    Returns one Trajectory per member.  Each member keeps its own clock and
    steps with its own dt: its entry of dt_fixed (one value, or one per
    member), checked against its own stability bound, or its own stable step.
    Each member shortens its last step to land on each output time and then
    waits until every member has landed there.  A step too small to move the
    output time it heads for raises StabilityError instead of stepping forever.
    """
    u, v = _as_batch(u), _as_batch(v)
    times = _normalise_output_times(T, output_times)
    dx = stepper.grid.dx
    p = stepper.p
    n_members = u.shape[0]
    if dt_fixed is not None:
        dt_fixed = np.broadcast_to(np.asarray(dt_fixed, dtype=float), (n_members,)).tolist()

    snapshots = [_states(stepper, 0.0, u, v)]
    initial_mass = u.sum(-1) * dx
    # per-member clocks and aggregates as Python floats: a batch is a handful
    # of members, and per-element float arithmetic is what numpy's is
    t = [0.0] * n_members
    n_steps = [0] * n_members
    max_residual = [0.0] * n_members

    for target in times[1:].tolist():
        while True:
            rows = [b for b in range(n_members) if t[b] < target]
            if not rows:
                break
            # a slice takes views: a step of the whole batch copies nothing
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
                # h is below half an ulp of the target, so reaching it would
                # take more than ~2**52 steps
                if target + h == target:
                    raise StabilityError(
                        f"step {h:.3e} of the {stepper.member_label(b)} at t={t[b]:.6g} "
                        f"is too small to reach the output time {target:.6g}")
            dts = [target - t[b] if target - t[b] <= h * (1.0 + 1e-9) else h
                   for b, h in zip(rows, nominal)]
            # the benchmark's tracer (perfbench/child.py) sums step's dt
            # argument into a JSON float, so a dt that every stepping member
            # shares goes in as a plain float
            step_dt = dts[0] if dts.count(dts[0]) == len(dts) else np.array(dts)
            new_u, new_v, residual = stepper.step([t[b] for b in rows], ua, va, step_dt,
                                                  members)
            if isinstance(members, slice):
                u, v = new_u, new_v
            else:
                u[members], v[members] = new_u, new_v
            for b, h, r in zip(rows, dts, residual.tolist()):
                t[b] += h
                n_steps[b] += 1
                max_residual[b] = max(max_residual[b], r)
        t = [target] * n_members
        snapshots.append(_states(stepper, target, u, v))

    return [
        Trajectory(
            times=times,
            states=[states[b] for states in snapshots],
            clipped_mass=stepper.clipped[b].copy(),
            initial_mass=initial_mass[b],
            n_steps=n_steps[b],
            max_balance_residual=max_residual[b],
        )
        for b in range(n_members)
    ]


def _run_members(stepper: _Stepper, u0, v30s, T: float, output_times, *,
                 cfl: float = 0.9, dt=None) -> list:
    """Integrate every member of ``stepper``'s batch, each on its own step
    schedule: the fixed dt (one value, or one per member) or, when dt is
    None, the member's own stable step.

    All members start from the species data u0 = (u10, u20, u30), with the
    fast chemicals at their elliptic solves.  v30s[b] is the slow-chemical
    datum of eps member b and None for a limit member, whose v3 starts from
    its elliptic solve too.  Returns one Trajectory per member.
    """
    if T < 0:
        raise ValueError("T must be non-negative")
    if len(v30s) != len(stepper.eps):
        raise ValueError("need one slow-chemical datum (or None) per member")
    if dt is not None and not (np.isfinite(dt) & np.greater(dt, 0.0)).all():
        # a step of 0 never reaches T and a negative one runs backwards
        raise ValueError("a fixed dt must be finite and positive")
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
            dt: float | None = None, chemical_mode: str = "mixed") -> Trajectory:
    """Integrate the relaxation-time system from t = 0 to T.

    The elliptic chemicals are initialised from the species data; v30 is the
    given datum for the slow chemical.  Passing ``dt`` forces a fixed step
    schedule (still shortened to land exactly on output times), which lets a
    paired limit run share the identical schedule.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    st = _EpsStepper(u10.grid, p, eps, chemical_mode=chemical_mode)
    return _run_members(st, (u10, u20, u30), [v30], T, output_times, cfl=cfl,
                        dt=dt)[0]
