"""Former home of the limiting system's integrator: ``run_limit`` and ``_LimitStepper``
now live in ``sim_eps``, and stay bound here only for perfbench/child.py."""

from .sim_eps import _LimitStepper, run_limit
