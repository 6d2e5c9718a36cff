"""Time integrator for the limiting parabolic-elliptic system.

A limit run is a run of the relaxation-time stepper whose eps is None: the
same split step, except that the slow chemical is an elliptic solve too, so
all three chemicals satisfy their resolvent equations at every step.  There
is no datum for v3: its initial value is the resolvent applied to the initial
predator density.  It returns a ``sim_eps.Trajectory`` with eps None, whose
snapshots are one (n_times, 6, n) array and whose States are views into it.
"""

from __future__ import annotations

from .grid import Field
from .model import ModelParams
# _LimitStepper has no use here; perfbench/child.py binds sim_limit._LimitStepper
from .sim_eps import Trajectory, _LimitStepper, run_batch

__all__ = ["run_limit"]


def run_limit(u10: Field, u20: Field, u30: Field, T: float, p: ModelParams,
              output_times=None, *, cfl: float = 0.9,
              dt: float | None = None) -> Trajectory:
    """Integrate the limiting system from t = 0 to T.

    All chemicals, including v3, start from elliptic solves at the species
    data, so the trajectory begins on the critical manifold.
    """
    return run_batch((u10, u20, u30), [None], [None], T, p, output_times, cfl=cfl,
                     dt=dt)[0]
