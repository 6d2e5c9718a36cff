"""Spatially homogeneous dynamics: the three-population and reduced
predator-prey systems, equilibrium/stability analysis, oscillation detection,
and dense bifurcation sweeps.

Sweeps replace continuation: one stacked damped-Newton solve searches for the
equilibria of every parameter value at once, each equilibrium gets an
eigenvalue classification, and long integrations are run only where no
non-negative equilibrium is stable.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, kinetics, kinetics_jacobian

__all__ = [
    "OdeTrajectory",
    "OscillationRecord",
    "BranchPoint",
    "StiffnessError",
    "ode_rhs_3pop",
    "ode_rhs_pp",
    "ode_jacobian_3pop",
    "ode_jacobian_pp",
    "model_rhs",
    "integrate",
    "find_equilibria",
    "classify_stability",
    "detect_oscillation",
    "bifurcation_sweep",
]


class StiffnessError(RuntimeError):
    """Step size underflowed; the problem is too stiff for the explicit pair."""


@dataclass
class OdeTrajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)
    n_steps: int
    n_rejected: int


# The right-hand sides take one (dim,) state or an (..., dim) stack.  ``y.T``
# reverses the axes, so its rows are the components and a second ``.T`` puts
# the stack back.  ``integrate`` evaluates the same formulas on Python floats
# through ``model_rhs``.


def ode_rhs_3pop(y, p: ModelParams) -> np.ndarray:
    """Right-hand side of the three-population system (= the kinetics)."""
    yt = np.asarray(y).T
    return np.array(kinetics(yt[0], yt[1], yt[2], p)).T


def ode_jacobian_3pop(y, p: ModelParams) -> np.ndarray:
    """(3, 3) Jacobian at one state, (..., 3, 3) for an (..., 3) stack."""
    y = np.asarray(y)
    return kinetics_jacobian(y[..., 0], y[..., 1], y[..., 2], p)


def _pp_kinetics(u1, u3, p: ModelParams):
    """Reaction terms (f1, f3) of the one-prey/one-predator system; accepts
    scalars or same-shape arrays, like ``kinetics``."""
    h1 = p.m1 * u1 / (p.eta1 + u1)
    f1 = p.alpha1 * u1 * (1.0 - u1) - h1 * u3
    f3 = (p.gamma1 * h1 - p.k) * u3 - p.l * u3 * u3
    return f1, f3


def ode_rhs_pp(y, p: ModelParams) -> np.ndarray:
    """Reduced one-prey/one-predator system in (u1, u3)."""
    yt = np.asarray(y).T
    return np.array(_pp_kinetics(yt[0], yt[1], p)).T


def ode_jacobian_pp(y, p: ModelParams) -> np.ndarray:
    """(2, 2) Jacobian at one state, (..., 2, 2) for an (..., 2) stack."""
    y = np.asarray(y)
    u1, u3 = y[..., 0], y[..., 1]
    s1 = p.eta1 + u1
    h1 = p.m1 * u1 / s1
    dh1 = p.m1 * p.eta1 / (s1 * s1)
    J = np.array(
        [
            [p.alpha1 * (1.0 - 2.0 * u1) - dh1 * u3, -h1],
            [p.gamma1 * dh1 * u3, p.gamma1 * h1 - p.k - 2.0 * p.l * u3],
        ]
    )
    return np.moveaxis(J, (0, 1), (-2, -1))


class _FloatRhs:
    """``fn(*components, p)`` as an ``integrate`` right-hand side.

    ``integrate`` runs its stages through ``floats`` on lists of Python
    floats.  Called with one (dim,) state or an (..., dim) stack it returns
    what ``ode_rhs_*`` would, from numpy values: at a pole that gives inf or
    nan where Python floats raise ZeroDivisionError.
    """

    def __init__(self, fn, p: ModelParams):
        self.floats = lambda state: fn(*state, p)

    def __call__(self, y) -> np.ndarray:
        return np.array(self.floats(np.asarray(y, dtype=float).T)).T


def model_rhs(model: str, p: ModelParams) -> _FloatRhs:
    """Right-hand side of ``model`` ("3pop" or "pp") at ``p`` for ``integrate``.

    It is the formula of ``ode_rhs_3pop``/``ode_rhs_pp``, and ``integrate``
    evaluates it on Python floats, to the same bits at a fraction of the
    cost of a numpy call per stage.
    """
    if model == "3pop":
        return _FloatRhs(kinetics, p)
    if model == "pp":
        return _FloatRhs(_pp_kinetics, p)
    raise ValueError(f"unknown model {model!r}")


# Dormand-Prince 5(4) coefficients
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4


def _rms(num, den) -> float:
    """sqrt(mean((num / den) ** 2)), summed left to right like numpy's sum."""
    acc = 0.0
    for a, b in zip(num, den):
        q = a / b
        acc += q * q
    return math.sqrt(acc / len(num))


def integrate(rhs, y0, T: float, rtol: float = 1e-8, atol: float = 1e-11,
              t_eval=None) -> OdeTrajectory:
    """Adaptive Dormand-Prince 5(4) with cubic Hermite dense output.

    Steps are accepted when the embedded error estimate stays below
    rtol * |state| + atol componentwise (RMS-scaled); requested output times
    (finite, non-decreasing, inside [0, T]) are filled by Hermite
    interpolation on the accepted steps.

    ``rhs`` maps a (dim,) ndarray state to its (dim,) derivative.  The
    states are short, so the step arithmetic runs on Python floats, in the
    order a numpy version of it would take.  A right-hand side from
    ``model_rhs`` is evaluated on those float lists directly; any other is
    called with an ndarray.  numpy is kept where the bits depend on it: the
    two weighted stage sums are BLAS matvecs on a (7, dim) stage array,
    which sum in their own order, and each stage's derivative is stored
    there.
    """
    if not (rtol > 0 and atol > 0):
        raise ValueError("rtol and atol must be positive")
    if not 0 <= T < math.inf:
        raise ValueError("T must be finite and non-negative")
    y0 = np.array(y0, dtype=float)
    if y0.ndim != 1 or y0.size == 0 or not np.all(np.isfinite(y0)):
        raise ValueError("y0 must be a non-empty 1-D array of finite values")
    y = y0.tolist()
    dim = len(y)

    if t_eval is None:
        eval_times = None
        out_t = [0.0]
        out_y = [y]
    else:
        eval_times = np.asarray(t_eval, dtype=float)
        if eval_times.ndim != 1 or not np.all(np.isfinite(eval_times)):
            raise ValueError("t_eval must be a 1-D array of finite times")
        if np.any(np.diff(eval_times) < 0):
            raise ValueError("t_eval must be sorted")
        if eval_times.size and (eval_times[0] < 0 or eval_times[-1] > T * (1 + 1e-12) + 1e-300):
            raise ValueError("t_eval must lie inside [0, T]")
        eval_times = eval_times.tolist()
        out_t = []
        out_y = []
        next_eval = 0

    k = np.zeros((7, dim))  # stage derivatives, the matvec operand

    if isinstance(rhs, _FloatRhs):
        floats = rhs.floats

        def stage(i, state):
            try:
                vals = floats(state)
            except ZeroDivisionError:  # at a pole, the ndarray route's inf or nan
                vals = rhs(np.array(state)).tolist()
            k[i] = vals
            return vals
    else:
        def stage(i, state):
            k[i] = rhs(np.array(state))
            return k[i].tolist()

    f = stage(0, y)
    t = 0.0
    n_steps = 0
    n_rejected = 0

    if eval_times is not None:
        while next_eval < len(eval_times) and eval_times[next_eval] <= 0.0:
            out_t.append(eval_times[next_eval])
            out_y.append(y)
            next_eval += 1

    if T == 0.0:
        return OdeTrajectory(np.array(out_t), np.array(out_y), 0, 0)

    # initial step from the scale of the data
    scale = [atol + rtol * abs(a) for a in y]
    d0 = _rms(y, scale)
    d1 = _rms(f, scale)
    h0 = 0.01 * d0 / d1 if (d0 > 1e-12 and d1 > 1e-12) else 1e-3
    h = min(T, h0)

    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A[1:]
    b5, k_b5 = _B5[:6], k[:6]
    while t < T:
        if T - t <= 1e-12 * max(1.0, T):
            t = T
            break
        h = min(h, T - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StiffnessError(f"step size underflow at t={t:.6g}")
        # k[0] holds f; stage sums unrolled in the tableau's left-to-right order
        k1 = stage(1, [a + h * (a21 * c0) for a, c0 in zip(y, f)])
        k2 = stage(2, [a + h * (a31 * c0 + a32 * c1) for a, c0, c1 in zip(y, f, k1)])
        k3 = stage(3, [a + h * (a41 * c0 + a42 * c1 + a43 * c2)
                       for a, c0, c1, c2 in zip(y, f, k1, k2)])
        k4 = stage(4, [a + h * (a51 * c0 + a52 * c1 + a53 * c2 + a54 * c3)
                       for a, c0, c1, c2, c3 in zip(y, f, k1, k2, k3)])
        stage(5, [a + h * (a61 * c0 + a62 * c1 + a63 * c2 + a64 * c3 + a65 * c4)
                  for a, c0, c1, c2, c3, c4 in zip(y, f, k1, k2, k3, k4)])
        y5 = [a + h * c for a, c in zip(y, (b5 @ k_b5).tolist())]
        f_new = stage(6, y5)
        err = _rms([h * e for e in (_ERR @ k).tolist()],
                   [atol + rtol * max(abs(a), abs(b)) for a, b in zip(y, y5)])
        if err <= 1.0:
            t_new = t + h
            if eval_times is not None:
                while next_eval < len(eval_times) and eval_times[next_eval] <= t_new + 1e-14:
                    s = (eval_times[next_eval] - t) / h
                    # cubic Hermite on (y, f) at both step ends
                    h00 = (1 + 2 * s) * (1 - s) ** 2
                    h10 = s * (1 - s) ** 2
                    h01 = s * s * (3 - 2 * s)
                    h11 = s * s * (s - 1)
                    out_y.append([h00 * a + h10 * h * fa + h01 * b + h11 * h * fb
                                  for a, fa, b, fb in zip(y, f, y5, f_new)])
                    out_t.append(eval_times[next_eval])
                    next_eval += 1
            else:
                out_t.append(t_new)
                out_y.append(y5)
            t, y, f = t_new, y5, f_new
            k[0] = k[6]
            n_steps += 1
            h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 1e-12 else 5.0))
        else:
            n_rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)

    if eval_times is not None:
        # times equal to T within round-off
        out_t.extend(eval_times[next_eval:])
        out_y.extend([y] * (len(eval_times) - next_eval))
    return OdeTrajectory(np.array(out_t), np.array(out_y), n_steps, n_rejected)


def _solve_rows(J: np.ndarray, F: np.ndarray):
    """Newton steps ``J[i]^-1 F[i]`` and a mask of the rows that have one.

    A batched ``np.linalg.solve`` raises for the whole stack when one matrix
    is singular, so rows whose LU determinant is zero or not finite are
    retried one by one; those that still raise or whose step is not finite
    have no step.
    """
    step = np.empty_like(F)
    has_step = np.ones(F.shape[0], dtype=bool)
    det = np.linalg.det(J)
    regular = np.isfinite(det) & (det != 0.0)
    step[regular] = np.linalg.solve(J[regular], F[regular][..., None])[..., 0]
    for i in np.flatnonzero(~regular):
        try:
            step[i] = np.linalg.solve(J[i], F[i])
        except np.linalg.LinAlgError:
            has_step[i] = False
    return step, has_step & np.isfinite(step).all(axis=-1)


_NEWTON_MAX_ITER = 60
_NEWTON_TOL = 1e-12


@np.errstate(over="ignore", invalid="ignore")
def _newton(rhs, jac, y0, args=()):
    """Damped Newton on every row of an ``(N, dim)`` stack at once.

    ``args`` holds per-row arrays passed after the states, sliced with them.
    Each row takes the path a lone solve from it would: stop once
    max |rhs| <= 1e-12; otherwise halve the step from lam = 1 (at most 40
    times) until max |rhs| decreases, and give up on a singular Jacobian, a
    failed line search or after 60 steps.  Only the rows still iterating
    are evaluated; an overflow leaves a row no step or a candidate that is
    not better (nan compares false).  Returns the final states and a
    converged mask.
    """
    y = np.array(y0, dtype=float)
    f = rhs(y, *args)
    fnorm = np.max(np.abs(f), axis=-1)
    converged = np.zeros(y.shape[0], dtype=bool)
    live = np.arange(y.shape[0])  # rows still iterating
    for _ in range(_NEWTON_MAX_ITER):
        done = fnorm[live] <= _NEWTON_TOL
        converged[live[done]] = True
        live = live[~done]
        if live.size == 0:
            break
        step, has_step = _solve_rows(jac(y[live], *(a[live] for a in args)), f[live])
        live, step = live[has_step], step[has_step]
        # line search; ``pending`` indexes the rows of ``live`` still halving
        pending = np.arange(live.size)
        lam = 1.0
        for _ in range(40):
            rows = live[pending]
            cand = y[rows] - lam * step[pending]
            fc = rhs(cand, *(a[rows] for a in args))
            cnorm = np.max(np.abs(fc), axis=-1)
            better = cnorm < fnorm[rows]
            took = rows[better]
            y[took], f[took], fnorm[took] = cand[better], fc[better], cnorm[better]
            pending = pending[~better]
            if pending.size == 0:
                break
            lam *= 0.5
        live = np.delete(live, pending)
    converged[live] = fnorm[live] <= _NEWTON_TOL
    return y, converged


def _guess_lattice(dim: int) -> np.ndarray:
    """The Newton starting points: every state with coordinates in 0, 0.3, ..., 1.5."""
    return np.array(list(itertools.product(np.linspace(0.0, 1.5, 6), repeat=dim)))


def find_equilibria(rhs, jacobian, dim: int, args=None):
    """Damped Newton from a lattice of guesses; keeps non-negative roots.

    ``rhs`` and ``jacobian`` take an ``(N, dim)`` stack of states and return
    ``(N, dim)`` and ``(N, dim, dim)``; every point of ``_guess_lattice(dim)``
    is one row of a single stacked Newton solve.  Converged roots
    (max |rhs| <= 1e-12) are deduplicated to 1e-8 in guess order and sorted
    lexicographically for reproducibility.

    With ``args`` (a sequence of K problem values), the guesses are solved
    for all K problems in the same stack: the callables are then called as
    ``rhs(y, a)``, where ``a`` holds each row's problem value, and one root
    list per problem is returned.
    """
    guesses = _guess_lattice(dim)
    n_guess = guesses.shape[0]
    values = None if args is None else np.asarray(args, dtype=float)
    n_prob = 1 if values is None else values.size
    row_args = () if values is None else (np.repeat(values, n_guess),)
    y, ok = _newton(rhs, jacobian, np.tile(guesses, (n_prob, 1)), row_args)

    rows = np.flatnonzero(ok)
    rows = rows[~(np.min(y[rows], axis=-1) < -1e-10)]
    y = y[rows]
    y[np.abs(y) < 1e-10] = 0.0
    resid = np.max(np.abs(rhs(y, *(a[rows] for a in row_args))), axis=-1)
    keep = ~(resid > 1e-12)
    rows, y = rows[keep], y[keep]

    roots = []
    bounds = np.searchsorted(rows // n_guess, np.arange(n_prob + 1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # a candidate survives when no earlier kept root lies within 1e-8
        cand, found = y[lo:hi], []
        while cand.shape[0]:
            found.append(cand[0])
            cand = cand[~(np.max(np.abs(cand - cand[0]), axis=-1) < 1e-8)]
        roots.append(sorted(found, key=tuple))
    return roots[0] if values is None else roots


@np.errstate(over="ignore", invalid="ignore")
def _eig_with_residual(J: np.ndarray):
    if J.shape == (2, 2):
        tr = J[0, 0] + J[1, 1]
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        disc = complex(tr * tr - 4.0 * det)
        root = np.sqrt(disc)
        lams = np.array([(tr + root) / 2.0, (tr - root) / 2.0])
        vecs = []
        for lam in lams:
            v = np.array([J[0, 1], lam - J[0, 0]], dtype=complex)
            if np.max(np.abs(v)) < 1e-300:
                v = np.array([lam - J[1, 1], J[1, 0]], dtype=complex)
            if np.max(np.abs(v)) < 1e-300:
                v = np.array([1.0, 0.0], dtype=complex)
            norm = np.linalg.norm(v)  # if it overflows: no eigenvector, nan residual
            vecs.append(v / norm if np.isfinite(norm) else np.full(2, np.nan))
        vecs = np.array(vecs).T
    else:
        lams, vecs = np.linalg.eig(J)
    res = np.max([np.linalg.norm(J @ vecs[:, i] - lams[i] * vecs[:, i])
                  for i in range(lams.size)])
    order = np.argsort(-lams.real)
    return lams[order], float(res)


@dataclass
class OscillationRecord:
    detected: bool
    amplitude: np.ndarray  # peak-to-trough per component after the transient
    period: float | None
    n_peaks: int


@dataclass
class BranchPoint:
    """One equilibrium of one parameter value in a sweep."""

    param_value: float
    state: np.ndarray
    eigenvalues: np.ndarray
    stable: bool
    eig_residual: float
    oscillation: OscillationRecord | None = None


def classify_stability(eq, jacobian) -> tuple[np.ndarray, bool, float]:
    """Eigenvalues (descending real part), stability flag, eigenpair residual."""
    lams, res = _eig_with_residual(np.asarray(jacobian(eq), dtype=float))
    return lams, bool(np.max(lams.real) < -1e-10), res


# an oscillation has at least this many peaks, a larger peak-to-trough
# amplitude, and last three inter-peak gaps that agree within this fraction
_OSC_MIN_PEAKS = 5
_OSC_MIN_AMPLITUDE = 1e-3
_OSC_PERIOD_TOL = 0.2


def detect_oscillation(traj: OdeTrajectory, transient_fraction: float = 0.5
                       ) -> OscillationRecord:
    """Peak-based oscillation detector on the first component.

    The leading transient is discarded; oscillation requires enough strict
    local maxima, a minimum peak-to-trough amplitude, and agreement of the
    last three inter-peak intervals.
    """
    if not 0.0 <= transient_fraction < 1.0:
        raise ValueError("transient_fraction must lie in [0, 1)")
    t = traj.times
    y = traj.states
    keep = t >= t[0] + transient_fraction * (t[-1] - t[0])
    t = t[keep]
    y = y[keep]
    amplitude = y.max(axis=0) - y.min(axis=0)
    u = y[:, 0]
    interior = (u[1:-1] > u[:-2]) & (u[1:-1] > u[2:])
    peak_idx = np.nonzero(interior)[0] + 1
    n_peaks = int(peak_idx.size)
    detected = False
    period = None
    if n_peaks >= _OSC_MIN_PEAKS and amplitude[0] > _OSC_MIN_AMPLITUDE:
        gaps = np.diff(t[peak_idx])[-3:]
        if gaps.size == 3 and gaps.max() - gaps.min() <= _OSC_PERIOD_TOL * gaps.mean():
            detected = True
            period = float(gaps.mean())
    return OscillationRecord(detected, amplitude, period, n_peaks)


def _row_params(p: ModelParams, param: str, column: np.ndarray) -> ModelParams:
    """``p`` with coefficient ``param`` replaced by one value per stacked row.

    ModelParams validates scalars only, so the caller validates the values.
    """
    q = copy.copy(p)
    object.__setattr__(q, param, column)
    return q


_SWEEP_Y0 = {"3pop": np.array([1.0, 1.0, 0.5]), "pp": np.array([1.0, 0.5])}


def bifurcation_sweep(model: str, param: str, values, p: ModelParams, *,
                      T_osc: float = 2000.0, rtol: float = 1e-8,
                      atol: float = 1e-11) -> list[BranchPoint]:
    """Equilibria + stability per parameter value, with long integrations and
    oscillation detection wherever no non-negative equilibrium is stable."""
    if model == "3pop":
        rhs_of, jac_of, dim = ode_rhs_3pop, ode_jacobian_3pop, 3
    elif model == "pp":
        rhs_of, jac_of, dim = ode_rhs_pp, ode_jacobian_pp, 2
    else:
        raise ValueError(f"unknown model {model!r}")

    values = np.asarray(values, dtype=float)
    params = [p.with_updates(**{param: float(val)}) for val in values]  # validates
    # a value so extreme that the Jacobian overflows or is 0/0 (eta1 = 5e-324
    # squares to 0) on the guess lattice would give nan eigenvalues
    lattice = _guess_lattice(dim)
    with np.errstate(all="ignore"):
        J = jac_of(np.tile(lattice, (values.size, 1)),
                   _row_params(p, param, np.repeat(values, len(lattice))))
    finite = np.isfinite(J).reshape(values.size, -1).all(axis=1)
    if not finite.all():
        raise ValueError(f"the {model} Jacobian is not finite at "
                         f"{param}={float(values[~finite][0])!r}")

    roots = find_equilibria(lambda y, c: rhs_of(y, _row_params(p, param, c)),
                            lambda y, c: jac_of(y, _row_params(p, param, c)),
                            dim=dim, args=values)
    points: list[BranchPoint] = []
    for val, pv, eqs in zip(values, params, roots):
        jac = lambda y, _pv=pv: jac_of(y, _pv)
        branch = []
        any_stable = False
        for eq in eqs:
            lams, stable, res = classify_stability(eq, jac)
            any_stable = any_stable or stable
            branch.append(BranchPoint(float(val), eq, lams, stable, res))
        record = None
        if not any_stable:
            traj = integrate(model_rhs(model, pv), _SWEEP_Y0[model], T_osc, rtol=rtol,
                             atol=atol, t_eval=np.linspace(0.0, T_osc, 4001))
            record = detect_oscillation(traj)
        for bp in branch:
            bp.oscillation = record
        points.extend(branch)
    return points
