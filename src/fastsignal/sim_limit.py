"""Time integrator for the limiting parabolic-elliptic system.

Identical splitting to the relaxation-time simulator except that the slow
chemical is replaced by an elliptic solve, so all three chemicals satisfy
their resolvent equations at every step.  There is no datum for v3: its
initial value is the resolvent applied to the initial predator density.
"""

from __future__ import annotations

from .grid import Field
from .model import ModelParams
from .sim_eps import LimitState, Trajectory, _LimitStepper, _run_members

__all__ = ["LimitState", "step_limit", "run_limit"]


def step_limit(s: LimitState, p: ModelParams, dt: float, *, scheme: str = "upwind",
               solver_method: str = "tridiagonal", solver_tol: float = 1e-10) -> LimitState:
    """One split step of the limiting system."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    st = _LimitStepper(s.grid, p, scheme=scheme, solver_method=solver_method,
                       solver_tol=solver_tol)
    u = (s.u1.values, s.u2.values, s.u3.values)
    v = (s.v1.values, s.v2.values, s.v3.values)
    u, v, _, _ = st.step(s.t, u, v, dt)
    g = s.grid
    return LimitState(s.t + dt, *(Field(x, g) for x in (*u[0], *v[0])))


def run_limit(u10: Field, u20: Field, u30: Field, T: float, p: ModelParams,
              output_times=None, *, cfl: float = 0.9, dt: float | None = None,
              scheme: str = "upwind", solver_method: str = "tridiagonal",
              solver_tol: float = 1e-10, record_steps: bool = True) -> Trajectory:
    """Integrate the limiting system from t = 0 to T.

    All chemicals, including v3, start from elliptic solves at the species
    data, so the trajectory begins on the critical manifold.
    """
    if T < 0:
        raise ValueError("T must be non-negative")
    grid = u10.grid
    for f in (u20, u30):
        if f.grid != grid:
            raise ValueError("initial fields live on different grids")
    if min(u10.values.min(), u20.values.min(), u30.values.min()) < 0:
        raise ValueError("initial data must be non-negative")

    st = _LimitStepper(grid, p, scheme=scheme, solver_method=solver_method,
                       solver_tol=solver_tol)
    return _run_members(st, (u10, u20, u30), [None], T, output_times, cfl=cfl,
                        dt=dt, record_steps=record_steps)[0]
