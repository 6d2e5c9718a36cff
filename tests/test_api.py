"""The public API, pinned: the names the package exports and the attributes of
a Trajectory.  A change that removes a public name fails here."""

import dataclasses
import types

import fastsignal
from fastsignal import Trajectory

EXPORTS = {
    "BlowUpError", "BranchPoint", "Field", "Grid", "HelmholtzOperator",
    "InitialLayerSpec", "ModelParams", "OdeTrajectory", "OscillationRecord",
    "RateReport", "SolverConvergenceError", "SolverStats", "StabilityError", "State",
    "StiffnessError", "Trajectory", "TrajectoryComparison", "bifurcation_sweep",
    "classify_stability", "compare_trajectories", "default_initial_fields",
    "default_params", "detect_oscillation", "find_equilibria", "fit_slope", "gmres",
    "helmholtz_solve", "initial_layer_size", "integrate", "kinetics",
    "kinetics_jacobian", "make_grid", "make_layer_data", "manifold_distance",
    "manifold_distance_study", "manifold_projection", "model_rhs",
    "norm_h1", "norm_h2_proxy", "norm_l2", "ode_rhs_3pop", "ode_rhs_pp", "rate_study",
    "run_batch", "run_eps", "run_limit", "semigroup_identity_residual", "stable_dt", "step",
}

TRAJECTORY_ATTRIBUTES = {
    "times", "values", "grid", "eps", "states", "n_steps", "clipped_mass",
    "initial_mass", "max_balance_residual", "spatial_means",
}


def test_package_exports_exactly_its_public_names():
    # submodules become package attributes when imported, so they are not names
    names = {name for name, value in vars(fastsignal).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == EXPORTS


def test_trajectory_public_attributes():
    fields = {f.name for f in dataclasses.fields(Trajectory)}
    members = {name for name in dir(Trajectory) if not name.startswith("_")}
    assert fields | members == TRAJECTORY_ATTRIBUTES
