"""Time integrator for the relaxation-time system (three parabolic species
equations with chemotaxis, two elliptic chemicals, and one slow-evolution
parabolic chemical) and for its limiting parabolic-elliptic system.

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

from dataclasses import dataclass, fields

import numpy as np

from .grid import Field, Grid
from .linsolve import _exp_factors, _mode_rates, _source_resolvent, from_modes, to_modes
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
    "run_batch",
    "run_eps",
    "run_limit",
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
    """Full solution of one run at one time; eps is None for the limiting system.
    A Trajectory's States are views: each Field wraps a row of its ``values``."""

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


# the rows of a snapshot, in State's order: the species, then the chemicals
_COMPONENTS = tuple(f.name for f in fields(State))[2:]


def _state(t: float, eps, rows, grid: Grid) -> State:
    """The State whose Fields wrap the six (n,) rows of a snapshot, without copies."""
    return State(t, eps, *(Field(x, grid) for x in rows))


@dataclass
class Trajectory:
    """Snapshots of one run at the requested output times plus stepping diagnostics.

    ``values`` holds the snapshots as one (n_times, 6, n) array: values[k] is
    (u1, u2, u3, v1, v2, v3) at times[k].  ``states`` builds one State per
    snapshot on demand, as views into ``values``.  The diagnostics are
    aggregates over the whole run, accumulated while stepping: the step count,
    the worst per-step mass-balance residual and the mass clipped per species.
    """

    times: np.ndarray
    values: np.ndarray
    grid: Grid
    eps: float | None
    clipped_mass: np.ndarray
    n_steps: int
    max_balance_residual: float

    @property
    def states(self) -> list:
        return [_state(t, self.eps, rows, self.grid)
                for t, rows in zip(self.times.tolist(), self.values)]

    @property
    def initial_mass(self) -> np.ndarray:
        """Mass of each species at t = 0."""
        return self.values[0, :3].sum(-1) * self.grid.dx

    def spatial_means(self) -> np.ndarray:
        """Domain averages of (u1, u2, u3) at the snapshot times."""
        return self.values[:, :3].mean(-1)


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


def _reaction_rate_bounds(p: ModelParams, m1, m2, m3):
    lam1 = p.alpha1 * (1.0 + 2.0 * m1 + p.beta1 * m2) + p.m1 * m3 / p.eta1
    lam2 = p.alpha2 * (1.0 + 2.0 * m2 + p.beta2 * m1) + p.m2 * m3 / p.eta2
    lam3 = p.gamma1 * p.m1 + p.gamma2 * p.m2 + p.k + 2.0 * p.l * m3
    return lam1, lam2, lam3


def _stable_dt_values(u, v, p: ModelParams, dx: float, cfl: float, dv=None,
                      batch_wide: bool = False):
    """Stable step of each member of a (B, 3, n) batch, shape (B,); a scalar
    for one (3, n) state, and for the batch_wide bound at the batch's largest
    densities and differences, which is no member's bound above (coefficients
    are >= 0; float +, *, / and max are monotone).  dv is v's face difference
    if given.  Bounds are evaluated on Python floats, whose arithmetic is
    numpy's elementwise arithmetic."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError("cfl must lie in (0, 1]")
    u = np.asarray(u, dtype=float)
    dv = np.diff(np.asarray(v, dtype=float)) if dv is None else dv
    axis = (0, -1) if batch_wide else -1
    m = u.max(axis).reshape(-1, 3).tolist()
    g = (np.abs(dv).max(axis) / dx).reshape(-1, 3).tolist()
    dts = []
    for (m1, m2, m3), (g1, g2, g3) in zip(m, g):
        r1, r2, r3 = _reaction_rate_bounds(p, m1, m2, m3)
        den1 = 2.0 * p.d1 + 2.0 * p.chi1 * g3 * dx + dx * dx * r1
        den2 = 2.0 * p.d2 + 2.0 * p.chi2 * g3 * dx + dx * dx * r2
        den3 = 2.0 * p.d3 + 2.0 * (p.chi31 * g1 + p.chi32 * g2) * dx + dx * dx * r3
        dts.append(cfl * dx * dx / max(den1, den2, den3))
    return np.array(dts) if u.ndim == 3 and not batch_wide else np.float64(dts[0])


def stable_dt(s, p: ModelParams, cfl: float) -> float:
    """Largest explicit step for the species update, scaled by cfl.

    Bounds diffusion, the upwind chemotactic drift from the current chemical
    gradients, and a local Lipschitz estimate of the reaction terms.
    """
    x = np.array([getattr(s, c).values for c in _COMPONENTS])
    return float(_stable_dt_values(x[:3], x[3:], p, s.grid.dx, cfl))


def initial_stable_dt(u10: Field, u20: Field, u30: Field, v30: Field,
                      p: ModelParams, cfl: float) -> float:
    """stable_dt of the state a run starts from: the species data, v30, and
    the fast chemicals at their elliptic solves from the species data."""
    grid = u10.grid
    v1 = _source_resolvent(p.lambda1, p.mu1, p.zeta1, grid, u10.values, 1)
    v2 = _source_resolvent(p.lambda2, p.mu2, p.zeta2, grid, u20.values, 2)
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


def _heun_species(u, v, p: ModelParams, dx: float, dt, c: dict, dv=None):
    """One SSP-RK2 step of the species subsystem with frozen chemicals.

    u and v are (B, 3, n); dt is a float or a (B, 1, 1) column of per-member
    steps; c holds _species_planes(p, B, n, dx); dv, if given, is v's face
    difference v[..., 1:] - v[..., :-1].  Returns the pre-clip update
    and the time-centred (B, 3) reaction mass rate per species (transport
    contributes exactly zero total mass).  Works on species-major (3, B, n)
    copies.  A stage's transport is the divergence of one face flux per
    species, a * x[j + 1] + bm * x[j]: the donor-cell drifts up v3, v3, v1
    and v2, and the mirrored-ghost Laplacian as (d / dx**2)(x[j + 1] - x[j]).
    a >= 0 and bm <= 0 depend only on v, so both stages share them."""
    us = np.ascontiguousarray(np.transpose(u, (1, 0, 2)), dtype=float)
    if np.ndim(dt):
        dt = np.reshape(dt, (1, -1, 1))
    if dv is None:
        dv = v[..., 1:] - v[..., :-1]
    cg = c["chi"] * np.transpose(dv, (1, 0, 2))[[2, 2, 0, 1]]
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

    def __init__(self, grid: Grid, p: ModelParams, eps=None, *,
                 chemical_mode: str = "mixed"):
        if chemical_mode not in ("mixed", "fully_parabolic"):
            raise ValueError(f"unknown chemical_mode {chemical_mode!r}")
        eps = [eps] if eps is None or np.ndim(eps) == 0 else list(eps)
        if not all(e is None or 0.0 < e < np.inf for e in eps):
            raise ValueError("eps must be finite and positive")
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
        return _source_resolvent(self._lam[which], self._mu[which], self._zeta[which, 0],
                                 self.grid, u, which + 1)

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

    def step(self, t, u, v, dt, members=slice(None), dv=None, mass=None):
        """Advance ``members`` of the batch (slice(None) for all, or an index
        array), whose species and chemicals are (u, v), from their times t by
        their steps dt.

        t and dt are each one value or an array of one value per member; dv
        and mass, if given, are v's face difference and u.sum(-1) * dx.
        Returns the new (B, 3, n) species and chemicals and the (B,)
        mass-balance residuals of the stepped members, and sets ``self.mass``
        to the new species' mass, or None if the step clipped some of it.
        """
        u, v = _as_batch(u), _as_batch(v)
        per_member = isinstance(dt, np.ndarray)
        dt_col = dt[:, None] if per_member else dt
        dx = self.grid.dx
        mass_old = u.sum(-1) * dx if mass is None else mass
        if len(u) not in self._planes:
            self._planes[len(u)] = _species_planes(self.p, len(u), self.grid.n, dx)
        with np.errstate(over="ignore", invalid="ignore"):
            new_u, reaction_rate = _heun_species(
                u, v, self.p, dx, dt_col[..., None] if per_member else dt,
                self._planes[len(u)], dv)
            mass_pre = new_u.sum(-1) * dx
        # a non-finite density makes its member's mass non-finite
        if not np.isfinite(mass_pre).all():
            self._check_finite(new_u, "u", t, dt, members)
        scale = np.maximum(np.abs(mass_old), 1.0)
        residual = (np.abs((mass_pre - mass_old) / dt_col - reaction_rate) / scale).max(-1)
        self.mass = mass_pre
        neg = new_u < 0.0
        if neg.any():
            ids = np.arange(len(self.eps))[members]
            for b, i in zip(*np.nonzero(neg.any(-1))):
                self.clipped[ids[b], i] += -dx * new_u[b, i][neg[b, i]].sum()
            new_u = np.where(neg, 0.0, new_u)
            self.mass = None
        new_v = self.advance_chemicals(u, new_u, v, dt, members)
        self._check_finite(new_v, "v", t, dt, members)
        return new_u, new_v, residual


# the names perfbench/child.py builds steppers by, as (grid, p, eps) and (grid, p)
_EpsStepper = _LimitStepper = _Stepper


def step(s: State, p: ModelParams, dt: float, *, chemical_mode: str = "mixed") -> State:
    """One split step of the relaxation-time system, or of the limiting
    system when s.eps is None."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be finite and positive")
    st = _Stepper(s.grid, p, s.eps, chemical_mode=chemical_mode)
    x = np.array([getattr(s, c).values for c in _COMPONENTS])
    u, v, _ = st.step(s.t, x[:3], x[3:], dt)
    return _state(s.t + dt, s.eps, (*u[0], *v[0]), s.grid)


def _normalise_output_times(T: float, output_times) -> np.ndarray:
    if output_times is None:
        output_times = np.linspace(0.0, T, 64) if T > 0 else np.array([0.0])
    # sorted and deduplicated as np.unique does, which would import numpy.ma
    times = np.sort(np.asarray(output_times, dtype=float), axis=None)
    if (times.size == 0 or not np.isfinite(times).all() or times[0] < 0
            or times[-1] > T + 1e-12 * max(T, 1.0)):
        raise ValueError("output times must lie inside [0, T]")
    times = times[np.append(True, times[1:] != times[:-1])]
    if times[0] > 0.0:
        times = np.concatenate([[0.0], times])
    return times


def _integrate(stepper: _Stepper, u, v, T: float, output_times, *, cfl: float,
               dt_fixed=None) -> list:
    """Step every member of the batch (u, v) from t = 0 to T.

    Returns one Trajectory per member, whose values are its slice of one
    (B, n_times, 6, n) snapshot array.  Each member keeps its own clock and
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

    # every snapshot of every member, written in place at each output time
    snaps = np.empty((n_members, times.size, 6, u.shape[-1]))
    snaps[:, 0, :3], snaps[:, 0, 3:] = u, v
    # per-member clocks and aggregates as Python floats: a batch is a handful
    # of members, and per-element float arithmetic is what numpy's is
    t = [0.0] * n_members
    n_steps = [0] * n_members
    max_residual = [0.0] * n_members
    mass = None  # the species' mass after an unclipped step of the whole batch

    for k, target in enumerate(times[1:].tolist(), 1):
        while True:
            rows = [b for b in range(n_members) if t[b] < target]
            if not rows:
                break
            # a slice takes views: a step of the whole batch copies nothing
            whole = len(rows) == n_members
            members = slice(None) if whole else np.array(rows)
            ua, va = u[members], v[members]
            dv = va[..., 1:] - va[..., :-1]
            if dt_fixed is None:
                nominal = _stable_dt_values(ua, va, p, dx, cfl, dv).tolist()
            else:
                nominal = [dt_fixed[b] for b in rows]
                # only a step over the batch-wide bound needs the members' own
                floor = float(_stable_dt_values(ua, va, p, dx, 1.0, dv, batch_wide=True))
                if max(nominal) > floor * (1.0 + 1e-9):
                    cap = _stable_dt_values(ua, va, p, dx, 1.0, dv).tolist()
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
            # a dt shared by every stepping member goes in as a plain float:
            # perfbench/child.py's tracer sums step's dt into a JSON float, and
            # it is step's faster path, bitwise the same (no per-member column:
            # 1-2 us of a ~100 us step at n = 256, B = 1 and n = 64, B = 5)
            step_dt = dts[0] if dts.count(dts[0]) == len(dts) else np.array(dts)
            new_u, new_v, residual = stepper.step([t[b] for b in rows], ua, va, step_dt,
                                                  members, dv, mass if whole else None)
            mass = stepper.mass if whole else None
            if whole:
                u, v = new_u, new_v
            else:
                u[members], v[members] = new_u, new_v
            for b, h, r in zip(rows, dts, residual.tolist()):
                t[b] += h
                n_steps[b] += 1
                max_residual[b] = max(max_residual[b], r)
        t = [target] * n_members
        snaps[:, k, :3], snaps[:, k, 3:] = u, v

    return [Trajectory(times, snaps[b], stepper.grid, stepper.eps[b],
                       stepper.clipped[b].copy(), n_steps[b], max_residual[b])
            for b in range(n_members)]


def run_batch(u0, v30s, eps, T: float, p: ModelParams, output_times=None, *,
              cfl: float = 0.9, dt=None, chemical_mode: str = "mixed") -> list:
    """Integrate a batch of runs from t = 0 to T; one Trajectory per member,
    each bitwise the member's own run.

    Member b has relaxation parameter eps[b], None for a limit run.  All start
    from the species data u0 = (u10, u20, u30) with the fast chemicals at their
    elliptic solves; v3 starts from v30s[b], or for a limit member (None) from
    its elliptic solve too.  Each member steps by the fixed dt (one value, or
    one per member; shortened to land on output times) or its own stable step.
    """
    stepper = _Stepper(u0[0].grid, p, list(eps), chemical_mode=chemical_mode)
    if not 0.0 <= T < np.inf:
        raise ValueError("T must be finite and non-negative")
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
    """Integrate the relaxation-time system from t = 0 to T, with v30 the
    slow chemical's datum: run_batch's one-member form."""
    return run_batch((u10, u20, u30), [v30], [eps], T, p, output_times, cfl=cfl, dt=dt,
                     chemical_mode=chemical_mode)[0]


def run_limit(u10: Field, u20: Field, u30: Field, T: float, p: ModelParams,
              output_times=None, *, cfl: float = 0.9, dt: float | None = None) -> Trajectory:
    """Integrate the limiting system from t = 0 to T, every chemical starting at
    its elliptic solve (on the critical manifold): run_batch's one-member form."""
    return run_batch((u10, u20, u30), [None], [None], T, p, output_times, cfl=cfl, dt=dt)[0]
