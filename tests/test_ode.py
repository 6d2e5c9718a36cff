"""Tests for the homogeneous ODE systems, integrator and bifurcation sweeps."""

import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fastsignal import ode
from fastsignal.cli import main
from fastsignal.model import default_params, kinetics
from fastsignal.ode import (
    StiffnessError,
    _newton,
    _row_params,
    _solve_rows,
    bifurcation_sweep,
    classify_stability,
    detect_oscillation,
    find_equilibria,
    integrate,
    model_rhs,
    ode_jacobian_3pop,
    ode_jacobian_pp,
    ode_rhs_3pop,
    ode_rhs_pp,
    OdeTrajectory,
)

P = default_params()


def rk4_reference(fn, y0, T, dt):
    """Classical RK4 on Python floats; ``fn(*y)`` returns the derivative's
    components.  Each update is the elementwise one of an ndarray RK4."""
    y = [float(a) for a in y0]
    for _ in range(int(round(T / dt))):
        k1 = fn(*y)
        k2 = fn(*[a + dt / 2 * b for a, b in zip(y, k1)])
        k3 = fn(*[a + dt / 2 * b for a, b in zip(y, k2)])
        k4 = fn(*[a + dt * b for a, b in zip(y, k3)])
        y = [a + dt / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    return np.array(y)


def test_rhs_3pop_matches_kinetics():
    rng = np.random.default_rng(0)
    assert np.all(ode_rhs_3pop(np.zeros(3), P) == 0.0)
    f = ode_rhs_3pop(np.array([1.0, 1.0, 1.0]), P)
    assert np.allclose(f, [-0.63, -0.55, -0.11], atol=1e-12)
    for _ in range(20):
        y = rng.random(3) * 2.0
        assert np.all(ode_rhs_3pop(y, P) == np.array(kinetics(*y, P)))


def test_rhs_pp_examples():
    assert np.all(ode_rhs_pp(np.zeros(2), P) == 0.0)
    assert np.all(ode_rhs_pp(np.array([1.0, 0.0]), P) == 0.0)
    f = ode_rhs_pp(np.array([1.0, 1.0]), P)
    assert np.allclose(f, [-0.15, -0.125], atol=1e-12)


def test_pp_jacobian_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = rng.random(2) * 2.0
        J = ode_jacobian_pp(y, P)
        h = 1e-7
        for j in range(2):
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            col = (ode_rhs_pp(yp, P) - ode_rhs_pp(ym, P)) / (2 * h)
            assert np.max(np.abs(J[:, j] - col)) <= 1e-6


def test_integrate_constant_and_exponential():
    traj = integrate(lambda y: np.zeros_like(y), np.array([1.0, 2.0]), 5.0)
    assert np.allclose(traj.states[-1], [1.0, 2.0])
    rtol = 1e-8
    traj = integrate(lambda y: -y, np.array([1.0]), 1.0, rtol=rtol, atol=1e-12)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) <= 10 * rtol
    assert traj.n_steps > 0


def test_integrate_matches_rk4_reference():
    ref = rk4_reference(lambda *y: kinetics(*y, P), [1.0, 1.0, 1.0], 5.0, 1e-5)
    traj = integrate(lambda y: ode_rhs_3pop(y, P), np.array([1.0, 1.0, 1.0]), 5.0,
                     rtol=1e-10, atol=1e-12)
    assert np.max(np.abs(traj.states[-1] - ref)) <= 1e-6


def test_integrate_dense_output_accuracy():
    times = np.linspace(0.0, 10.0, 41)
    traj = integrate(lambda y: -y, np.array([1.0]), 10.0, rtol=1e-10, atol=1e-13,
                     t_eval=times)
    assert np.allclose(traj.times, times)
    assert np.max(np.abs(traj.states[:, 0] - np.exp(-times))) <= 1e-8


def test_integrate_nonnegative_trajectories():
    rhs = lambda y: ode_rhs_3pop(y, P)
    traj = integrate(rhs, np.array([0.5, 0.5, 0.5]), 200.0, t_eval=np.linspace(0, 200, 501))
    assert traj.states.min() >= -1e-10


def test_integrate_validation():
    with pytest.raises(ValueError):
        integrate(lambda y: -y, np.array([1.0]), 1.0, rtol=0.0)
    with pytest.raises(ValueError):
        integrate(lambda y: -y, np.array([1.0]), -1.0)
    # the same checks on the ndarray route and on the float route
    for rhs in (lambda y: ode_rhs_pp(y, P), model_rhs("pp", P)):
        # unchecked, an unsorted t_eval is filled by extrapolating a later step
        with pytest.raises(ValueError, match="sorted"):
            integrate(rhs, [1.0, 0.5], 10.0, t_eval=[5.0, 1.0, 10.0])
        with pytest.raises(ValueError, match="t_eval"):
            integrate(rhs, [1.0, 0.5], 10.0, t_eval=[0.0, np.nan, 10.0])
        for T in (np.inf, np.nan):
            with pytest.raises(ValueError, match="T must be finite"):
                integrate(rhs, [1.0, 0.5], T)
        for y0 in ([np.nan, 0.5], [1.0, np.inf]):
            with pytest.raises(ValueError, match="y0"):
                integrate(rhs, y0, 10.0)


def test_ndarray_rhs_of_the_wrong_size_raises():
    # one value would broadcast and three would be cut short by a zip
    for wrong in (lambda y: y[:1], lambda y: np.append(y, 1.0), lambda y: y.sum(),
                  lambda y: y[:, None]):
        with pytest.raises(ValueError, match="expected \\(2,\\)"):
            integrate(wrong, [1.0, 0.5], 1.0)


def test_empty_t_eval_gives_an_empty_trajectory():
    for model, rhs_of, dim in (("pp", ode_rhs_pp, 2), ("3pop", ode_rhs_3pop, 3)):
        for rhs in (lambda y: rhs_of(y, P), model_rhs(model, P)):
            for T in (0.0, 10.0):
                traj = integrate(rhs, np.ones(dim), T, t_eval=[])
                assert traj.times.shape == (0,) and traj.states.shape == (0, dim)
                assert traj.states.dtype == float
    with pytest.raises(ValueError, match="empty trajectory"):
        detect_oscillation(traj)


def test_zero_horizon_fills_every_requested_time():
    # t_eval may overshoot T by round-off; at T = 0 that is up to 1e-300
    for rhs in (lambda y: ode_rhs_pp(y, P), model_rhs("pp", P)):
        traj = integrate(rhs, [1.0, 0.5], 0.0, t_eval=[0.0, 1e-300])
        assert traj.times.tolist() == [0.0, 1e-300]
        assert traj.states.tolist() == [[1.0, 0.5]] * 2


def test_find_equilibria_3pop_contains_origin():
    rhs = lambda y: ode_rhs_3pop(y, P)
    jac = lambda y: ode_jacobian_3pop(y, P)
    eqs = find_equilibria(rhs, jac, dim=3)
    assert any(np.max(np.abs(e)) <= 1e-12 for e in eqs)
    for e in eqs:
        assert np.max(np.abs(rhs(e))) <= 1e-12
        assert np.min(e) >= 0.0
    # deduplicated: no pair closer than 1e-8
    for i, a in enumerate(eqs):
        for b in eqs[i + 1:]:
            assert np.max(np.abs(a - b)) > 1e-8


def test_find_equilibria_pp_carrying_capacity():
    rhs = lambda y: ode_rhs_pp(y, P)
    jac = lambda y: ode_jacobian_pp(y, P)
    eqs = find_equilibria(rhs, jac, dim=2)
    assert any(np.allclose(e, [1.0, 0.0], atol=1e-10) for e in eqs)


def test_pp_interior_threshold_against_bisection_oracle():
    """The coexistence equilibrium appears at m1* where gamma1 m1/(eta1+1) = k."""
    def has_interior(m1):
        pv = P.with_updates(m1=m1)
        eqs = find_equilibria(lambda y: ode_rhs_pp(y, pv),
                              lambda y: ode_jacobian_pp(y, pv), dim=2)
        return any(np.min(e) > 1e-6 for e in eqs)

    lo, hi = 0.05, 1.5
    assert not has_interior(lo) and has_interior(hi)
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        if has_interior(mid):
            hi = mid
        else:
            lo = mid
    threshold = 0.5 * (lo + hi)
    analytic = P.k * (P.eta1 + 1.0) / P.gamma1
    assert abs(threshold - analytic) <= 1e-4


def test_classify_stability_examples():
    jac3 = lambda y: ode_jacobian_3pop(y, P)
    lams, stable, res = classify_stability(np.zeros(3), jac3)
    assert np.allclose(sorted(lams.real), [-0.1, 0.8, 1.0], atol=1e-12)
    assert not stable
    assert res <= 1e-8

    jacpp = lambda y: ode_jacobian_pp(y, P)
    lams2, stable2, res2 = classify_stability(np.array([1.0, 0.0]), jacpp)
    assert np.allclose(sorted(lams2.real), [-0.8, -0.025], atol=1e-12)
    assert stable2
    assert res2 <= 1e-8


def test_triangular_jacobian_eigenvalues_are_its_diagonal():
    """At the prey-only equilibrium (u3 = 0) the pp Jacobian is triangular,
    so its eigenvalues are its diagonal, to the bit.  The state is the one
    the m1 = 0.6 sweep finds, whose u1 sits two ulps above 1."""
    pv = P.with_updates(m1=0.6, eta1=1.0)
    jac = lambda y: ode_jacobian_pp(y, pv)
    eq = np.array([1.0000000000000004, 0.0])
    J = jac(eq)
    assert J[1, 0] == 0.0 and J[1, 1] > 0.0
    lams, stable, _ = classify_stability(eq, jac)
    assert np.array_equal(lams, sorted(np.diag(J), reverse=True))
    assert not stable


def test_detect_oscillation_rejects_flat_and_decaying():
    t = np.linspace(0.0, 100.0, 2001)
    flat = OdeTrajectory(t, np.ones((t.size, 2)), 0, 0)
    assert not detect_oscillation(flat).detected
    decaying = OdeTrajectory(
        t, np.stack([1.0 + np.exp(-t) * np.cos(t), np.ones_like(t)], axis=1), 0, 0
    )
    assert not detect_oscillation(decaying).detected


def test_detect_oscillation_finds_limit_cycle():
    pv = P.with_updates(eta1=0.2, eta2=0.2, m1=0.8)
    rhs = lambda y: ode_rhs_pp(y, pv)
    traj = integrate(rhs, np.array([1.0, 0.5]), 2000.0,
                     t_eval=np.linspace(0.0, 2000.0, 4001))
    rec = detect_oscillation(traj)
    assert rec.detected
    assert rec.period is not None and rec.period > 0.0
    assert rec.amplitude[0] > 1e-3


def test_bifurcation_sweep_pp_regimes_and_consistency():
    pv = P.with_updates(eta1=0.2, eta2=0.2)
    values = np.linspace(0.05, 1.5, 16)
    points = bifurcation_sweep("pp", "m1", values, pv, T_osc=1500.0)
    by_value = {}
    for bp in points:
        by_value.setdefault(bp.param_value, []).append(bp)
        assert bp.eig_residual <= 1e-8
        assert np.max(np.abs(ode_rhs_pp(bp.state, pv.with_updates(m1=bp.param_value)))) <= 1e-12
    extinction, coexist, oscillating = [], [], []
    for val, branch in by_value.items():
        stable = [bp for bp in branch if bp.stable]
        osc = any(bp.oscillation is not None and bp.oscillation.detected for bp in branch)
        if osc:
            oscillating.append(val)
            # oscillation is reported only where nothing is stable
            assert not stable
        elif any(np.min(bp.state) > 1e-6 for bp in stable):
            coexist.append(val)
        elif stable:
            extinction.append(val)
    assert extinction and coexist and oscillating
    assert max(extinction) < min(coexist) < min(oscillating)


def test_bifurcation_sweep_stability_flips_match_eigenvalues():
    pv = P.with_updates(eta1=0.2, eta2=0.2)
    values = np.linspace(0.3, 0.7, 9)
    points = bifurcation_sweep("pp", "m1", values, pv, T_osc=300.0)
    interior = [bp for bp in points if np.min(bp.state) > 1e-6]
    for bp in interior:
        assert bp.stable == (bp.eigenvalues.real.max() < -1e-10)


def test_bifurcation_sweep_rejects_unknown_model():
    with pytest.raises(ValueError):
        bifurcation_sweep("2pop", "m1", [0.1], P)


def test_bifurcation_sweep_rejects_unknown_parameter():
    # the name is checked before any value: ModelParams would raise TypeError,
    # and an empty sweep would build no ModelParams at all
    for values in ([0.1], []):
        with pytest.raises(ValueError, match="unknown model parameter 'foo'"):
            bifurcation_sweep("pp", "foo", values, P)


def test_integrate_reports_stiffness_failure():
    # finite-time derivative blow-up: y' = -1/y^2 reaches y = 0 at t = 1/3
    with pytest.raises(StiffnessError):
        integrate(lambda y: -1.0 / (y * y), np.array([1.0]), 1.0)


MODELS = {
    "pp": (ode_rhs_pp, ode_jacobian_pp, 2),
    "3pop": (ode_rhs_3pop, ode_jacobian_3pop, 3),
}


# as in _newton, the norm test rejects a candidate whose rhs overflowed
@np.errstate(over="ignore", invalid="ignore")
def newton_reference(rhs, jac, y0, max_iter=60, tol=1e-12):
    """The damped Newton for one guess, as a lone solve takes it."""
    y = np.array(y0, dtype=float)
    fnorm = np.max(np.abs(rhs(y)))
    for _ in range(max_iter):
        if fnorm <= tol:
            return y
        try:
            step = np.linalg.solve(jac(y), rhs(y))
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        for _ in range(40):
            cand = y - lam * step
            cnorm = np.max(np.abs(rhs(cand)))
            if cnorm < fnorm:
                y, fnorm = cand, cnorm
                break
            lam *= 0.5
        else:
            return None
    return y if fnorm <= tol else None


def find_equilibria_reference(rhs, jac, dim):
    """Per-guess filter and deduplication of one problem's lattice."""
    axis = np.linspace(0.0, 1.5, 6)
    roots = []
    for g in itertools.product(axis, repeat=dim):
        y = newton_reference(rhs, jac, np.array(g))
        if y is None or np.min(y) < -1e-10:
            continue
        y = np.where(np.abs(y) < 1e-10, 0.0, y)
        if np.max(np.abs(rhs(y))) > 1e-12:
            continue
        if any(np.max(np.abs(y - r)) < 1e-8 for r in roots):
            continue
        roots.append(y)
    return sorted(roots, key=tuple)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_stacked_rhs_and_jacobian_equal_row_by_row(model):
    rhs_of, jac_of, dim = MODELS[model]
    y = np.random.default_rng(8).random((3, 4, dim)) * 2.0
    f, J = rhs_of(y, P), jac_of(y, P)
    assert f.shape == (3, 4, dim) and J.shape == (3, 4, dim, dim)
    for idx in np.ndindex(3, 4):
        assert np.array_equal(f[idx], rhs_of(y[idx], P))
        assert np.array_equal(J[idx], jac_of(y[idx], P))


@settings(max_examples=30, deadline=None)
@given(model=st.sampled_from(sorted(MODELS)), eta2=st.floats(0.05, 1.0),
       k=st.floats(0.01, 0.3), data=st.data())
def test_stacked_newton_matches_scalar_reference(model, eta2, k, data):
    rhs_of, jac_of, dim = MODELS[model]
    p = P.with_updates(eta2=eta2, k=k)
    n = data.draw(st.integers(1, 12))
    guesses = data.draw(arrays(float, (n, dim), elements=st.floats(0.0, 1.5)))
    m1 = data.draw(arrays(float, n, elements=st.floats(0.05, 1.5)))
    # with m1 = alpha1 and eta1 = 1 the Jacobian's first row vanishes at
    # u1 = u2 = 0, u3 = 1, so a lone solve from there stops at once
    singular = np.zeros(dim)
    singular[-1] = 1.0
    assert P.alpha1 == 0.8 and P.eta1 == 1.0
    guesses = np.vstack([guesses[: n // 2], singular, guesses[n // 2:]])
    m1 = np.insert(m1, n // 2, 0.8)

    y, ok = _newton(lambda y, c: rhs_of(y, _row_params(p, "m1", c)),
                    lambda y, c: jac_of(y, _row_params(p, "m1", c)), guesses, (m1,))
    assert not ok[n // 2]
    for i in range(n + 1):
        pv = p.with_updates(m1=float(m1[i]))
        ref = newton_reference(lambda y: rhs_of(y, pv), lambda y: jac_of(y, pv),
                               guesses[i])
        assert ok[i] == (ref is not None)
        if ref is not None:
            assert np.array_equal(y[i], ref)


def test_solve_rows_retries_screened_rows_one_by_one():
    J = np.array([np.eye(2) * 1e-200, [[2.0, 1.0], [1.0, 3.0]], [[1.0, 2.0], [2.0, 4.0]]])
    F = np.array([[1e-200, 2e-200], [1.0, 2.0], [1.0, 1.0]])
    step, has_step = _solve_rows(J, F)
    assert np.linalg.det(J[0]) == 0.0  # underflows, yet the matrix is regular
    assert has_step.tolist() == [True, True, False]
    for i in range(2):
        assert np.array_equal(step[i], np.linalg.solve(J[i], F[i]))


def test_solve_rows_equals_per_row_solves_on_every_sub_stack():
    J = np.array([
        [[2.0, 1.0], [1.0, 3.0]],  # regular
        np.eye(2) * 1e-200,  # regular, but its det underflows to 0
        [[1.0, 2.0], [2.0, 4.0]],  # singular
        [[np.inf, 1.0], [1.0, 1.0]],
        [[np.nan, 1.0], [1.0, 1.0]],
        [[1e308, 1e308], [-1e308, 1e308]],  # its det overflows
    ])
    F = np.array([[1.0, 2.0], [1e-200, 2e-200], [1.0, 1.0], [1.0, 2.0], [1.0, 2.0],
                  [1.0, 1.0]])
    expected = []
    for Ji, Fi in zip(J, F):
        try:
            ref = np.linalg.solve(Ji, Fi)
        except np.linalg.LinAlgError:
            ref = None
        expected.append((ref, ref is not None and bool(np.isfinite(ref).all())))
    assert [has for _, has in expected] == [True, True, False, True, False, True]
    # a stack whose one solve raises takes the screened path, any other the
    # stacked one; both must give each row its own solve's outcome
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for size in range(1, len(J) + 1):
            for sub in map(list, itertools.combinations(range(len(J)), size)):
                step, has_step = _solve_rows(J[sub], F[sub])
                for i, got, has in zip(sub, step, has_step):
                    ref, ref_has = expected[i]
                    assert has == ref_has
                    if ref is not None:
                        assert got.tobytes() == ref.tobytes()


def _halving_rhs(y, c=0.1):
    """A synthetic system in which the Jacobian sets the line search's outcome.

    State (x, s, g); f = (2 x - 2 c + r, 0, 0), where r = 0 for g = 0,
    r = x x - x x (0, or nan once x x overflows) for g = 1 and r = x x (inf
    once it overflows) for g = 2.  ``_halving_jac`` leaves r out and gives
    2 s for 2, so the Newton step is (x - c) / s and s, g never change.  For
    g < 2, s = 2^-k and exact arithmetic, the first candidate that lowers
    |f0| is lam = 2^-k: k = 0...39 accept at candidate k, k = 40 uses up all
    40 candidates, s < 0 sends every step uphill and s = 0 is singular.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x, g = y[..., 0], y[..., 2]
        r = np.where(g == 1, x * x - x * x, np.where(g == 2, x * x, 0.0))
        f0 = (x + x) - (c + c) + r
    zero = np.zeros_like(f0)
    return np.stack([f0, zero, zero], axis=-1)


def _halving_jac(y, c=0.1):
    J = np.zeros(y.shape + (3,))
    J[..., 0, 0] = 2.0 * y[..., 1]
    J[..., 1, 1] = J[..., 2, 2] = 1.0
    return J


def _halving_row(x, k, c=0.1, g=0.0):
    return (float(x), 2.0 ** -k, g, c)


_X = st.builds(lambda m, e: m * 2.0 ** e, st.integers(-64, 64),
               st.sampled_from([-6, 0, 8, 506, 1010]))
# k = 39 and 40 are the last candidate and one past it
_K = st.one_of(st.integers(0, 40), st.sampled_from([39, 40]))
_S = st.one_of(_K.map(lambda k: 2.0 ** -k), _K.map(lambda k: -(2.0 ** -k)), st.just(0.0))
_C = st.one_of(st.integers(-64, 64).map(lambda m: m / 8.0), st.floats(-2.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 60).flatmap(lambda n: st.lists(
           st.tuples(_X, _S, st.sampled_from([0.0, 1.0, 2.0]), _C), min_size=n, max_size=n)),
       per_row_args=st.booleans())
# one row accepts at the last candidate, one would accept at a 41st
@example(rows=[_halving_row(1, 39), _halving_row(1, 40)], per_row_args=False)
# a lone pending row tries 10 candidates in one call; only the first
# better one (lam = 2^-3) lands on the root in one step
@example(rows=[_halving_row(1, 0)] * 9 + [_halving_row(1, 3)], per_row_args=False)
# two pending rows with their own c share blocks of 10 candidates
@example(rows=[_halving_row(1, 0)] * 18 + [_halving_row(1, 3, c=-0.5),
                                            _halving_row(2, 4, c=0.75)],
         per_row_args=True)
def test_blocked_line_search_matches_scalar_reference(rows, per_row_args):
    y0 = np.array([r[:3] for r in rows])
    c = np.array([r[3] for r in rows])
    y, ok = _newton(_halving_rhs, _halving_jac, y0, (c,) if per_row_args else ())
    for i in range(len(rows)):
        ci = (c[i],) if per_row_args else ()
        ref = newton_reference(lambda v: _halving_rhs(v, *ci),
                               lambda v: _halving_jac(v, *ci), y0[i])
        assert ok[i] == (ref is not None)
        if ref is not None:
            assert y[i].tobytes() == ref.tobytes()


@pytest.mark.parametrize("n_rows", [40, 64])
def test_failed_line_search_costs_two_rhs_calls(n_rows):
    # every row but the last lands on its root at lam = 1; the last goes
    # uphill.  lam = 1 is one call over all rows, and the one pending row then
    # tries block = min(39, n_rows // 1) = 39 candidates in one more call
    y0 = np.array([_halving_row(1, 0)[:3]] * (n_rows - 1) + [(1.0, -1.0, 0.0)])
    sizes = []

    def counted(y):
        sizes.append(len(y))
        return _halving_rhs(y)

    y, ok = _newton(counted, _halving_jac, y0)
    assert ok.tolist() == [True] * (n_rows - 1) + [False]
    # the initial residual, then iteration 1's search; iteration 2 stops
    assert sizes == [n_rows, n_rows, 39]


def test_sweep_newton_stacks_no_more_rows_than_its_guesses(monkeypatch):
    stacks, sizes = [], []
    newton = ode._newton

    def recording_newton(rhs, jac, y0, args=()):
        stacks.append(len(y0))

        def counted(y, *a):
            sizes.append(len(y))
            return rhs(y, *a)

        return newton(counted, jac, y0, args)

    monkeypatch.setattr(ode, "_newton", recording_newton)
    bifurcation_sweep("3pop", "m1", np.linspace(0.05, 1.5, 24), P.with_updates(eta2=0.05))
    assert stacks == [24 * 6 ** 3]
    assert max(sizes) <= stacks[0]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_find_equilibria_over_values_matches_per_value_reference(model):
    rhs_of, jac_of, dim = MODELS[model]
    p = P.with_updates(eta1=0.2, eta2=0.2)
    values = np.array([0.05, 0.3, 0.8, 1.5])
    roots = find_equilibria(lambda y, c: rhs_of(y, _row_params(p, "m1", c)),
                            lambda y, c: jac_of(y, _row_params(p, "m1", c)),
                            dim=dim, args=values)
    assert len(roots) == values.size
    for val, got in zip(values, roots):
        pv = p.with_updates(m1=float(val))
        ref = find_equilibria_reference(lambda y: rhs_of(y, pv),
                                        lambda y: jac_of(y, pv), dim)
        assert len(got) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize(
    "model, flags",
    [
        ("pp", ["--eta1", "0.2", "--eta2", "0.2", "--sweep_max", "0.8",
                "--sweep_count", "4", "--T", "800"]),
        ("3pop", ["--eta2", "0.05", "--sweep_max", "1.5", "--sweep_count", "6",
                  "--T", "300"]),
    ],
)
def test_branch_csv_matches_golden(tmp_path, model, flags):
    code = main(["ode-bifurcation", "--ode_model", model, "--sweep_min", "0.05",
                 *flags, "--outdir", str(tmp_path)])
    assert code == 0
    golden = Path(__file__).parent / "data" / f"branch_{model}.csv"
    assert (tmp_path / "branch.csv").read_bytes() == golden.read_bytes()


# the Dormand-Prince 5(4) tableau, kept here so that a change to ode.py shows
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


def dp54_numpy_reference(rhs, y0, T, rtol, atol, t_eval=None):
    """The Dormand-Prince 5(4) loop on numpy arrays that ``integrate`` replaces.

    Every weighted stage sum is elementwise, term by term in the tableau's
    order with the zero weights left out, so no BLAS kernel sets the bits.
    """
    y = np.array(y0, dtype=float)
    dim = y.size
    if t_eval is None:
        eval_times, out_t, out_y = None, [0.0], [y.copy()]
    else:
        eval_times, out_t, out_y, next_eval = np.asarray(t_eval, dtype=float), [], [], 0
    f = rhs(y)
    t, n_steps, n_rejected = 0.0, 0, 0
    if eval_times is not None:
        while next_eval < eval_times.size and eval_times[next_eval] <= 0.0:
            out_t.append(eval_times[next_eval])
            out_y.append(y.copy())
            next_eval += 1
    scale = atol + rtol * np.abs(y)
    d0 = np.sqrt(((y / scale) ** 2).sum() / dim)
    d1 = np.sqrt(((f / scale) ** 2).sum() / dim)
    h0 = 0.01 * d0 / d1 if (d0 > 1e-12 and d1 > 1e-12) else 1e-3
    h = min(T, h0)
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A[1:]
    b1, b2, b3, b4, b5, b6, b7 = _B5
    e1, e2, e3, e4, e5, e6, e7 = (b - c for b, c in zip(_B5, _B4))
    assert b2 == b7 == e2 == 0.0
    while t < T:
        if T - t <= 1e-12 * max(1.0, T):
            t = T
            break
        h = min(h, T - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StiffnessError(f"step size underflow at t={t:.6g}")
        k0 = f
        k1 = rhs(y + h * (a21 * k0))
        k2 = rhs(y + h * (a31 * k0 + a32 * k1))
        k3 = rhs(y + h * (a41 * k0 + a42 * k1 + a43 * k2))
        k4 = rhs(y + h * (a51 * k0 + a52 * k1 + a53 * k2 + a54 * k3))
        k5 = rhs(y + h * (a61 * k0 + a62 * k1 + a63 * k2 + a64 * k3 + a65 * k4))
        y5 = y + h * (b1 * k0 + b3 * k2 + b4 * k3 + b5 * k4 + b6 * k5)
        k6 = rhs(y5)
        err_vec = h * (e1 * k0 + e3 * k2 + e4 * k3 + e5 * k4 + e6 * k5 + e7 * k6)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = np.sqrt(((err_vec / scale) ** 2).sum() / dim)
        if err <= 1.0:
            t_new = t + h
            f_new = k6
            if eval_times is not None:
                while next_eval < eval_times.size and eval_times[next_eval] <= t_new + 1e-14:
                    s = (eval_times[next_eval] - t) / h
                    h00 = (1 + 2 * s) * (1 - s) ** 2
                    h10 = s * (1 - s) ** 2
                    h01 = s * s * (3 - 2 * s)
                    h11 = s * s * (s - 1)
                    out_y.append(h00 * y + h10 * h * f + h01 * y5 + h11 * h * f_new)
                    out_t.append(eval_times[next_eval])
                    next_eval += 1
            else:
                out_t.append(t_new)
                out_y.append(y5.copy())
            t, y, f = t_new, y5, f_new
            n_steps += 1
            h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 1e-12 else 5.0))
        else:
            n_rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
    if eval_times is not None:
        while next_eval < eval_times.size:
            out_t.append(eval_times[next_eval])
            out_y.append(y.copy())
            next_eval += 1
    return OdeTrajectory(np.array(out_t), np.array(out_y).reshape(-1, dim), n_steps,
                         n_rejected)


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(sorted(MODELS)), data=st.data(),
       m1=st.floats(0.05, 1.5), m2=st.floats(0.05, 1.0), eta1=st.floats(0.1, 1.0),
       eta2=st.floats(0.05, 1.0), k=st.floats(0.01, 0.3), l=st.floats(0.01, 0.3),
       T=st.floats(0.0, 60.0), rtol=st.floats(1e-10, 1e-5), atol=st.floats(1e-13, 1e-8))
def test_dp54_float_loop_equals_numpy_loop(model, data, m1, m2, eta1, eta2, k, l,
                                           T, rtol, atol):
    rhs_of, _, dim = MODELS[model]
    p = P.with_updates(m1=m1, m2=m2, eta1=eta1, eta2=eta2, k=k, l=l)
    rhs = lambda y: rhs_of(y, p)
    y0 = data.draw(arrays(float, dim, elements=st.floats(0.01, 2.0)))
    t_eval = data.draw(st.one_of(
        st.none(),
        st.integers(1, 60).map(lambda n: np.linspace(0.0, T, n)),
        st.lists(st.floats(0.0, T), max_size=30).map(sorted),
    ))
    ref = dp54_numpy_reference(rhs, y0, T, rtol, atol, t_eval)
    # the ndarray route and the float route of model_rhs
    for route in (rhs, model_rhs(model, p)):
        got = integrate(route, y0, T, rtol=rtol, atol=atol, t_eval=t_eval)
        assert (got.n_steps, got.n_rejected) == (ref.n_steps, ref.n_rejected)
        for a, b in ((got.times, ref.times), (got.states, ref.states)):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from(sorted(MODELS)), data=st.data(),
       params=st.fixed_dictionaries({
           name: st.floats(0.0, 2.0) for name in
           ("alpha1", "alpha2", "beta1", "beta2", "m1", "m2", "gamma1", "gamma2", "k", "l")
       }),
       eta1=st.floats(0.05, 1.0), eta2=st.floats(0.05, 1.0))
def test_float_rhs_equals_stacked_rhs(model, data, params, eta1, eta2):
    """model_rhs on Python floats gives the bits of ode_rhs_* on a stack."""
    rhs_of, _, dim = MODELS[model]
    p = P.with_updates(eta1=eta1, eta2=eta2, **params)
    # DP54 stage states may dip below zero; the poles sit at -eta <= -0.05
    states = data.draw(arrays(float, (data.draw(st.integers(1, 6)), dim),
                              elements=st.floats(-0.04, 3.0)))
    rhs = model_rhs(model, p)
    got = np.array([rhs.fn(*row, rhs.p) for row in states.tolist()])
    assert all(type(v) is float for v in rhs.fn(*states[0].tolist(), rhs.p))
    assert np.array_equal(got, rhs_of(states, p))
    assert np.array_equal(got[0], rhs_of(states[0], p))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_float_route_rejects_at_a_pole_like_the_ndarray_route(model):
    """A start state exactly at u = -eta divides by zero: the float route
    stops at once, the ndarray route once numpy's inf has underflowed the
    step, both at t = 0."""
    rhs_of, _, dim = MODELS[model]
    y0 = [-P.eta1, 0.5] if model == "pp" else [-P.eta1, 1.0, 0.5]
    for route in (lambda y: rhs_of(y, P), model_rhs(model, P)):
        with pytest.raises(StiffnessError, match="t=0"):
            with np.errstate(divide="ignore", invalid="ignore"):
                integrate(route, y0, 1.0)


def test_model_rhs_is_an_ndarray_rhs():
    y = np.random.default_rng(4).random((2, 5, 3))
    for model, rhs_of, dim in (("3pop", ode_rhs_3pop, 3), ("pp", ode_rhs_pp, 2)):
        for state in (y[0, 0, :dim], y[..., :dim]):
            assert np.array_equal(model_rhs(model, P)(state), rhs_of(state, P))
    with pytest.raises(ValueError):
        model_rhs("2pop", P)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 4, 7]), data=st.data(), T=st.floats(0.0, 20.0),
       rtol=st.floats(1e-10, 1e-5), atol=st.floats(1e-13, 1e-8))
def test_generated_attempt_equals_numpy_loop_for_other_dims(dim, data, T, rtol, atol):
    """The attempt generated for dims 1, 4 and 7, on a generic ndarray rhs.

    Below 8 terms numpy's sum adds left to right, so the reference's norms
    are the generated code's sums."""
    A = data.draw(arrays(float, (dim, dim), elements=st.floats(-1.0, 1.0)))
    rhs = lambda y: A @ y - y * y * y
    y0 = data.draw(arrays(float, dim, elements=st.floats(-2.0, 2.0)))
    t_eval = data.draw(st.one_of(
        st.none(),
        st.integers(1, 60).map(lambda n: np.linspace(0.0, T, n)),
        st.lists(st.floats(0.0, T), max_size=30).map(sorted),
    ))
    ref = dp54_numpy_reference(rhs, y0, T, rtol, atol, t_eval)
    got = integrate(rhs, y0, T, rtol=rtol, atol=atol, t_eval=t_eval)
    assert (got.n_steps, got.n_rejected) == (ref.n_steps, ref.n_rejected)
    for a, b in ((got.times, ref.times), (got.states, ref.states)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)


def counting(fn):
    """``fn`` and a one-item list that counts its calls."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return fn(*args)
    return counted, calls


@pytest.mark.parametrize("model", sorted(MODELS))
def test_dp54_makes_six_rhs_calls_per_attempt(model):
    """First same as last: one call for the initial derivative, then six per
    attempt, rejected attempts included, on the float and the ndarray route."""
    rhs_of, _, dim = MODELS[model]
    p = P.with_updates(eta1=0.2, eta2=0.2, m1=0.6)  # oscillating, with rejections
    float_fn, float_calls = counting(ode._pp_kinetics if model == "pp" else kinetics)
    array_fn, array_calls = counting(lambda y: rhs_of(y, p))
    for route, calls in ((ode._FloatRhs(float_fn, p), float_calls), (array_fn, array_calls)):
        traj = integrate(route, ode.MODELS[model][0], 50.0, t_eval=np.linspace(0.0, 50.0, 101))
        assert traj.n_rejected > 0
        assert calls[0] == 6 * (traj.n_steps + traj.n_rejected) + 1


def test_nan_rhs_shrinks_the_step_to_underflow():
    """A nan error norm rejects the attempt and shrinks h by the floor 0.2,
    as max(0.2, nan) = 0.2 does: from the initial 1e-3 (a nan derivative has
    no scale) the 16th rejection takes h below 1e-14, so the run fails after
    the initial call and 16 attempts of six, on both routes."""
    def nan_or_stop(value):
        def fn(*args):
            # a nan step size would never underflow: end the run instead
            assert float_calls[0] + array_calls[0] <= 1000, "h never underflowed"
            return value
        return fn

    nan_fn, float_calls = counting(nan_or_stop((np.nan, np.nan)))
    nan_rhs, array_calls = counting(nan_or_stop(np.full(2, np.nan)))
    for route, calls in ((ode._FloatRhs(nan_fn, P), float_calls), (nan_rhs, array_calls)):
        with pytest.raises(StiffnessError, match="step size underflow at t=0"):
            integrate(route, [1.0, 0.5], 1.0)
        assert calls[0] == 1 + 6 * 16


def test_a_pole_rejects_its_attempt():
    """A ZeroDivisionError in a stage rejects that one attempt, as the
    ndarray route's inf at the same stage does: h shrinks by the floor 0.2
    and the run goes on from there.  The attempt costs the calls it made up
    to the pole (here 2: its first stage and the raising one)."""
    calls = []

    def fn(u, p):
        calls.append(u)
        if len(calls) == 3:  # the second stage of the first attempt
            raise ZeroDivisionError
        return (p * u,)
    traj = integrate(ode._FloatRhs(fn, -1.0), [1.0], 5.0)
    stages = []

    def inf_at_the_same_stage(y):
        stages.append(y)
        return np.full(1, np.inf) if len(stages) == 3 else -y
    ref = integrate(inf_at_the_same_stage, [1.0], 5.0)
    assert (traj.n_steps, traj.n_rejected) == (ref.n_steps, ref.n_rejected)
    assert np.array_equal(traj.times, ref.times) and np.array_equal(traj.states, ref.states)
    calm = integrate(ode._FloatRhs(lambda u, p: (p * u,), -1.0), [1.0], 5.0)
    assert traj.n_rejected == calm.n_rejected + 1
    assert len(calls) == 6 * (traj.n_steps + traj.n_rejected - 1) + 1 + 2
    # both attempts start from y = 1, f = -1, so each first stage is 1 - h / 5:
    # the second h is 0.2 times the first
    assert 1.0 - calls[3] == pytest.approx(0.2 * (1.0 - calls[1]), rel=1e-12)
