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
import functools
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .model import ModelParams, kinetics, kinetics_jacobian

__all__ = [
    "OdeTrajectory", "OscillationRecord", "BranchPoint", "StiffnessError",
    "ode_rhs_3pop", "ode_rhs_pp", "ode_jacobian_3pop", "ode_jacobian_pp", "model_rhs",
    "integrate", "find_equilibria", "classify_stability", "detect_oscillation",
    "bifurcation_sweep",
]


class StiffnessError(RuntimeError):
    """The step underflowed, or so many steps are left that T is out of reach."""


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

    ``integrate`` calls ``fn`` on the Python floats of each stage state.
    Called with one (dim,) state or an (..., dim) stack it returns what
    ``ode_rhs_*`` would, from numpy values: at a pole that gives inf or nan
    where Python floats raise ZeroDivisionError.
    """

    def __init__(self, fn, p: ModelParams):
        self.fn, self.p = fn, p

    def __call__(self, y) -> np.ndarray:
        return np.array(self.fn(*np.asarray(y, dtype=float).T, self.p)).T


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
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_ERR = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))
_MAX_PROJECTED_STEPS = 1e9  # integrate's ceiling on (T - t) / h, far above any run's


def _rms(num, den) -> float:
    """sqrt(mean((num / den) ** 2)), summed left to right like numpy's sum."""
    acc = 0.0
    for a, b in zip(num, den):
        q = a / b
        acc += q * q
    return math.sqrt(acc / len(num))


@functools.cache
def _dp54_code(dim: int):
    """``attempt(fn, p, h, *y, *f, atol, rtol)``, which returns the error
    norm, the solution ``s6`` and its derivative ``k6``, and the Hermite fill
    ``hermite(s, h, *y, *f, *y5, *f_new)``: straight-line code on ``dim``
    Python floats, generated from the tableau as ``namedtuple`` generates its
    methods.  Stage j is one ``fn(*s{j}, p)`` call, into ``k{j}_*``.
    """
    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in range(dim))

    def weighted(weights, i):  # w0 * k0_i + w1 * k1_i + ..., zero weights left out
        return " + ".join(f"{w!r} * k{m}_{i}" for m, w in enumerate(weights) if w)

    lines = [f"def attempt(fn, p, h, {names('y')}, {names('k0_')}, atol, rtol):"]
    for j, row in enumerate(_A[1:] + (_B5,), 1):
        lines += [f"    s{j}_{i} = y{i} + h * ({weighted(row, i)})" for i in range(dim)]
        lines.append(f"    {names(f'k{j}_')}, = fn({names(f's{j}_')}, p)")
    lines += [f"    q{i} = h * ({weighted(_ERR, i)}) / (atol + rtol * max(abs(y{i}), abs(s6_{i})))"
              for i in range(dim)]
    norm = f"sqrt(({' + '.join(f'q{i} * q{i}' for i in range(dim))}) / {dim})"
    fill = ", ".join(f"h00 * y{i} + h10 * h * f{i} + h01 * z{i} + h11 * h * g{i}"
                     for i in range(dim))
    lines += [f"    return {norm}, [{names('s6_')}], [{names('k6_')}]",
              f"def hermite(s, h, {names('y')}, {names('f')}, {names('z')}, {names('g')}):",
              "    h00, h10 = (1 + 2 * s) * (1 - s) ** 2, s * (1 - s) ** 2",
              "    h01, h11 = s * s * (3 - 2 * s), s * s * (s - 1)",
              f"    return [{fill}]"]
    namespace = {"sqrt": math.sqrt}
    exec("\n".join(lines), namespace)
    return namespace["attempt"], namespace["hermite"]


def integrate(rhs, y0, T: float, rtol: float = 1e-8, atol: float = 1e-11,
              t_eval=None) -> OdeTrajectory:
    """Adaptive Dormand-Prince 5(4) with cubic Hermite dense output.

    Steps are accepted when the embedded error estimate stays below
    rtol * |state| + atol componentwise (RMS-scaled); requested output times
    (finite, non-decreasing, inside [0, T]) are filled by Hermite
    interpolation on the accepted steps.  Every 4 096 accepted steps the
    steps left, (T - t) / h, are projected; past 1e9 ``StiffnessError`` is
    raised, as the step stays bounded near an equilibrium.

    ``rhs`` maps a (dim,) ndarray state to its (dim,) derivative.  Each
    attempt is one straight-line function on Python floats, generated from
    the tableau once per ``dim`` (``_dp54_code``), so the bits do not depend
    on the BLAS build.  A right-hand side from ``model_rhs`` is evaluated on
    those floats directly; any other is called with an ndarray and must
    return dim values.  A float attempt that divides by zero (a pole) is
    re-run with the ndarray route's inf or nan for each stage that does.
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
        eval_times, out_t, out_y = None, [0.0], [y]
    else:
        eval_times = np.asarray(t_eval, dtype=float)
        if eval_times.ndim != 1 or not np.all(np.isfinite(eval_times)):
            raise ValueError("t_eval must be a 1-D array of finite times")
        if np.any(np.diff(eval_times) < 0):
            raise ValueError("t_eval must be sorted")
        if eval_times.size and (eval_times[0] < 0 or eval_times[-1] > T * (1 + 1e-12) + 1e-300):
            raise ValueError("t_eval must lie inside [0, T]")
        eval_times = eval_times.tolist()
        out_t, out_y, next_eval = [], [], 0

    attempt, hermite = _dp54_code(dim)
    if isinstance(rhs, _FloatRhs):
        fn, p = rhs.fn, rhs.p

        def guarded(*args):
            try:
                return fn(*args)
            except ZeroDivisionError:  # at a pole, the ndarray route's inf or nan
                return rhs(np.array(args[:-1])).tolist()
    else:
        def fn(*args):  # fn(*state, p) on the ndarray rhs
            vals = np.asarray(rhs(np.array(args[:-1])), dtype=float)
            if vals.shape != (dim,):
                raise ValueError(f"rhs returned shape {vals.shape}, expected ({dim},)")
            return vals.tolist()
        p, guarded = None, fn
    f = guarded(*y, p)
    t, n_steps, n_rejected = 0.0, 0, 0

    if eval_times is not None:
        while next_eval < len(eval_times) and eval_times[next_eval] <= 0.0:
            out_t.append(eval_times[next_eval])
            out_y.append(y)
            next_eval += 1

    # initial step from the scale of the data
    scale = [atol + rtol * abs(a) for a in y]
    d0, d1 = _rms(y, scale), _rms(f, scale)
    h = min(T, 0.01 * d0 / d1 if (d0 > 1e-12 and d1 > 1e-12) else 1e-3)

    while t < T:
        if T - t <= 1e-12 * max(1.0, T):
            t = T
            break
        h = min(h, T - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StiffnessError(f"step size underflow at t={t:.6g}")
        try:
            err, y5, f_new = attempt(fn, p, h, *y, *f, atol, rtol)
        except ZeroDivisionError:  # a pole: re-run the attempt with every stage guarded
            err, y5, f_new = attempt(guarded, p, h, *y, *f, atol, rtol)
        if err <= 1.0:
            t_new = t + h
            if eval_times is not None:
                while next_eval < len(eval_times) and eval_times[next_eval] <= t_new + 1e-14:
                    s = (eval_times[next_eval] - t) / h  # fraction of the step
                    out_y.append(hermite(s, h, *y, *f, *y5, *f_new))
                    out_t.append(eval_times[next_eval])
                    next_eval += 1
            else:
                out_t.append(t_new)
                out_y.append(y5)
            t, y, f = t_new, y5, f_new
            n_steps += 1
            h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 1e-12 else 5.0))
            if n_steps % 4096 == 0 and (T - t) / h > _MAX_PROJECTED_STEPS:
                raise StiffnessError(f"{(T - t) / h:.3g} steps projected from t={t:.6g} to "
                                     f"T={T:.6g}, past the ceiling of {_MAX_PROJECTED_STEPS:.0e}")
        else:
            n_rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)

    if eval_times is not None:
        # times equal to T within round-off
        out_t.extend(eval_times[next_eval:])
        out_y.extend([y] * (len(eval_times) - next_eval))
    return OdeTrajectory(np.array(out_t), np.array(out_y).reshape(len(out_t), dim),
                         n_steps, n_rejected)


@np.errstate(over="ignore", invalid="ignore")
def _solve_rows(J: np.ndarray, F: np.ndarray):
    """Newton steps ``J[i]^-1 F[i]`` and a mask of the rows that have one.

    One ``np.linalg.solve`` over the whole stack comes first.  It solves each
    matrix on its own, so its rows are the per-row solves bitwise, but it
    raises for the whole stack when one matrix is singular.  Only then are
    rows whose LU determinant is zero or not finite screened out and retried
    one by one; those that still raise have no step.  Nor has a row whose
    step is not finite.
    """
    has_step = np.ones(F.shape[0], dtype=bool)
    try:
        step = np.linalg.solve(J, F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.empty_like(F)
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
# the line search's candidate steps lam = 1, 1/2, ..., 2^-39, exact powers of two
_LINE_SEARCH_LAMS = np.array([math.ldexp(1.0, -k) for k in range(40)])


def _line_search(rhs, args, y, f, fnorm, live, step):
    """The blocked backtracking of ``_newton`` for the rows ``live``.

    Writes each row's first better candidate into ``y``, ``f`` and ``fnorm``
    and returns the positions in ``live`` of the rows that found none.
    Candidate ``b * pending.size + i`` is pending row i's at lam number
    ``start + b``, and its args are tiled in that order.  N is the number of
    rows of ``y``.  The blocks of up to N rows are freed on return, before
    ``_newton``'s next Jacobian.
    """
    pending = np.arange(live.size)  # positions in ``live`` still searching
    start = 0
    while pending.size and start < _LINE_SEARCH_LAMS.size:
        block = 1 if start == 0 else min(_LINE_SEARCH_LAMS.size - start,
                                         max(1, y.shape[0] // pending.size))
        rows = live[pending]
        lams = _LINE_SEARCH_LAMS[start:start + block, None, None]
        cand = (y[rows] - lams * step[pending]).reshape(-1, y.shape[1])
        cand_rows = np.tile(rows, block)
        fc = rhs(cand, *(a[cand_rows] for a in args))
        cnorm = np.max(np.abs(fc), axis=-1)
        better = (cnorm < fnorm[cand_rows]).reshape(block, rows.size)
        first = better.argmax(axis=0)  # each row's first better candidate
        took = np.flatnonzero(better.any(axis=0))
        pick = first[took] * rows.size + took
        won = rows[took]
        y[won], f[won], fnorm[won] = cand[pick], fc[pick], cnorm[pick]
        pending = np.delete(pending, took)
        start += block
    return pending


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _newton(rhs, jac, y0, args=()):
    """Damped Newton on every row of an ``(N, dim)`` stack at once.

    ``args`` holds per-row arrays passed after the states, sliced with them.
    Each row takes the path a lone solve from it would: stop once
    max |rhs| <= 1e-12; otherwise try the steps lam = 1, 1/2, ..., 2^-39
    (40 candidates, 39 halvings) and take the first whose max |rhs| is
    smaller; give up on a singular Jacobian, a failed line search or after
    60 steps.  Only the rows still iterating are evaluated; an overflow or
    a pole (a division by zero) leaves a row no step or a candidate that is
    not better (inf is not smaller, and nan compares false).  Returns the
    final states and a converged mask.

    The line search is blocked: every live row tries lam = 1 in one ``rhs``
    call, and the rows still pending then try the next
    ``block = min(left, max(1, N // pending))`` candidates each per call, so
    no call stacks more than N rows.  Taking each row's first better
    candidate in lam order is the choice the one-halving-at-a-time search
    makes.
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
        live = np.delete(live, _line_search(rhs, args, y, f, fnorm, live, step))
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
    if t.size == 0:
        raise ValueError("cannot detect oscillation on an empty trajectory")
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
    if param not in {f.name for f in fields(ModelParams)}:
        raise ValueError(f"unknown model parameter {param!r}")

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
