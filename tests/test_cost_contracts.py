"""Cost contracts: the structure of a PDE step and of a sweep's Newton solve,
pinned by call counts through the module bindings.  Counts are deterministic,
so, unlike timings, they cannot flake; a change that alters one on purpose
says so and updates the pin."""

import sys

import numpy as np
import pytest

from fastsignal import ode, sim_eps
from fastsignal.analysis import make_layer_data, rate_study
from fastsignal.grid import _chemotaxis_div, _laplacian, make_grid
from fastsignal.linsolve import _exp_factors, _source_resolvent, _spectral_resolvent
from fastsignal.model import default_params, kinetics
from fastsignal.sim_eps import default_initial_fields, run_eps

P = default_params()

# kernels a step must not call: the stage's transport is one face flux and its
# kinetics _species_rates, and the chemicals are solved in their cosine modes
_OUTSIDE_THE_LOOP = (_laplacian, _chemotaxis_div, kinetics, _source_resolvent,
                     _spectral_resolvent)
_PER_STEP = {"to_modes": 1, "from_modes": 1, "_heun_species": 1, "_species_rates": 2,
             "_stable_dt_values": 1}


@pytest.fixture
def loop_counts(monkeypatch):
    """Calls made inside sim_eps._integrate's stepping loop, by name: every
    fastsignal module binding of each counted function is replaced, so a
    caller that imported the name is counted too.  Calls from the output-time
    observer _integrate is given are not the loop's: they are counted under
    "observe", once per observer call."""
    counts = {}
    inside = [False]

    def substitute(fn, replacement):
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "fastsignal":
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, replacement)

    def count(fn, name=None):
        name = name or fn.__name__
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += inside[0]
            return fn(*args, **kwargs)

        substitute(fn, counted)

    for fn in (sim_eps.to_modes, sim_eps.from_modes, sim_eps._heun_species,
               sim_eps._species_rates, sim_eps._stable_dt_values, _exp_factors,
               *_OUTSIDE_THE_LOOP):
        count(fn)
    step = sim_eps._Stepper.step

    def counted_step(self, *args, **kwargs):
        counts["step"] += 1
        return step(self, *args, **kwargs)

    integrate = sim_eps._integrate

    def traced_integrate(stepper, u, v, T, times, observe, **kwargs):
        def outside_observe(*args):
            counts["observe"] += 1
            inside[0] = False
            try:
                return observe(*args)
            finally:
                inside[0] = True

        counts["output_times"] += times.size
        inside[0] = True
        try:
            return integrate(stepper, u, v, T, times, outside_observe, **kwargs)
        finally:
            inside[0] = False

    counts["step"] = counts["observe"] = counts["output_times"] = 0
    monkeypatch.setattr(sim_eps._Stepper, "step", counted_step)
    substitute(integrate, traced_integrate)
    return counts


def _assert_step_structure(counts):
    steps = counts["step"]
    assert steps >= 20
    assert {name: counts[name] for name in _PER_STEP} == {
        name: k * steps for name, k in _PER_STEP.items()}
    assert {fn.__name__: counts[fn.__name__] for fn in _OUTSIDE_THE_LOOP} == {
        fn.__name__: 0 for fn in _OUTSIDE_THE_LOOP}
    # the observer ran once per output time, t = 0 included
    assert counts["observe"] == counts["output_times"] > 0


def test_adaptive_run_step_structure(loop_counts):
    grid = make_grid(1.0, 16)
    u0 = default_initial_fields(grid)
    v30 = make_layer_data(u0[2], 0.5, 1e-2, P)
    traj = run_eps(*u0, v30, 1e-2, 0.4, P, np.linspace(0.0, 0.4, 4))
    _assert_step_structure(loop_counts)
    assert loop_counts["step"] == traj.n_steps


def test_fixed_schedule_batch_step_structure(loop_counts):
    grid = make_grid(1.0, 16)
    n_outputs = 4
    rate_study(*default_initial_fields(grid), "on_manifold", [1e-1, 1e-2, 1e-3], 0.2, P,
               n_outputs=n_outputs)
    _assert_step_structure(loop_counts)
    assert loop_counts["observe"] == n_outputs
    # the one exponential row set refactors only when its dt changes: onto the
    # shortened step that lands on an output time, and back
    assert loop_counts["_exp_factors"] <= 2 * (n_outputs - 1) < loop_counts["step"]


def test_per_member_dt_layer_batch_step_structure(loop_counts):
    grid = make_grid(1.0, 16)
    rate_study(*default_initial_fields(grid), 0.5, [1e-1, 1e-2, 1e-3], 0.04, P, n_outputs=3)
    _assert_step_structure(loop_counts)


@pytest.mark.parametrize("model, extra, values, most", [
    ("pp", {"eta1": 0.2, "eta2": 0.2}, np.linspace(0.05, 0.675, 6), 33),
    ("3pop", {"eta2": 0.05}, np.linspace(0.05, 1.5, 24), 172),
])
def test_sweep_newton_rhs_calls(monkeypatch, model, extra, values, most):
    """The stacked Newtons of the benchmark's unshifted m1 sweeps: one rhs
    call per iteration's residual and per block of line-search halvings, in
    each block of values (pp one block of 6, 3pop two blocks of 12)."""
    calls = []
    newton = ode._newton

    def counting_newton(rhs, jac, y0, args=()):
        def counted(y, *a):
            calls.append(len(y))
            return rhs(y, *a)

        return newton(counted, jac, y0, args)

    monkeypatch.setattr(ode, "_newton", counting_newton)
    ode.bifurcation_sweep(model, "m1", values, P.with_updates(**extra), T_osc=1.0)
    assert 0 < len(calls) <= most
