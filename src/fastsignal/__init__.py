"""Numerical laboratory for a two-prey/one-predator chemotaxis system and its
fast signal diffusion limit."""

from .analysis import (
    RateReport,
    TrajectoryComparison,
    compare_trajectories,
    fit_slope,
    initial_layer_size,
    make_layer_data,
    manifold_distance_study,
    manifold_projection,
    norm_l2,
    rate_study,
    semigroup_identity_residual,
)
from .grid import Field, Grid, make_grid
from .linsolve import (
    HelmholtzOperator,
    SolverConvergenceError,
    SolverStats,
    cg,
    helmholtz_solve,
)
from .model import ModelParams, default_params, kinetics, kinetics_jacobian
from .ode import (
    BranchPoint,
    OdeTrajectory,
    OscillationRecord,
    StiffnessError,
    bifurcation_sweep,
    classify_stability,
    detect_oscillation,
    find_equilibria,
    integrate,
    model_rhs,
    ode_rhs_3pop,
    ode_rhs_pp,
)
from .sim_eps import (
    BlowUpError,
    StabilityError,
    Trajectory,
    default_initial_fields,
    run_batch,
    run_eps,
    run_limit,
)

__version__ = "0.1.0"
