"""Model parameters and the shared Lotka-Volterra / Holling reaction kinetics.

The same kinetics feed the PDE simulators and the homogeneous ODE systems.
All coefficients are the rescaled (dimensionless) ones; in particular the
chemical production rates zeta_i default to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "ModelParams",
    "default_params",
    "kinetics",
    "kinetics_jacobian",
]

_POSITIVE = {
    "d1", "d2", "d3",
    "eta1", "eta2",
    "lambda1", "lambda2", "lambda3",
    "mu1", "mu2", "mu3",
}


@dataclass(frozen=True)
class ModelParams:
    """All scaled coefficients of the kinetics and chemical equations.

    Diffusivities, decay rates and half-saturation constants must be strictly
    positive; every other coefficient must be non-negative.
    """

    d1: float = 0.1
    d2: float = 0.1
    d3: float = 0.1
    chi1: float = 1.0
    chi2: float = 1.0
    chi31: float = 1.0
    chi32: float = 1.0
    alpha1: float = 0.8
    alpha2: float = 1.0
    beta1: float = 0.6
    beta2: float = 0.5
    m1: float = 0.3
    m2: float = 0.1
    eta1: float = 1.0
    eta2: float = 1.0
    gamma1: float = 0.5
    gamma2: float = 0.3
    k: float = 0.1
    l: float = 0.1
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    mu1: float = 0.1
    mu2: float = 0.1
    mu3: float = 0.1
    zeta1: float = 1.0
    zeta2: float = 1.0
    zeta3: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v):
                raise ValueError(f"parameter {f.name} is not finite")
            if f.name in _POSITIVE:
                if v <= 0:
                    raise ValueError(f"parameter {f.name} must be > 0, got {v}")
            elif v < 0:
                raise ValueError(f"parameter {f.name} must be >= 0, got {v}")

    def with_updates(self, **kwargs) -> "ModelParams":
        return replace(self, **kwargs)


def default_params() -> ModelParams:
    """Baseline simulation parameters (half-saturations default to 1)."""
    return ModelParams()


def kinetics(u1, u2, u3, p: ModelParams):
    """Reaction terms (f1, f2, f3); accepts scalars or same-shape arrays.

    f1 = alpha1 u1 (1 - u1 - beta1 u2) - m1 u1 / (eta1 + u1) * u3
    f2 = alpha2 u2 (1 - u2 - beta2 u1) - m2 u2 / (eta2 + u2) * u3
    f3 = (gamma1 m1 u1/(eta1+u1) + gamma2 m2 u2/(eta2+u2) - k) u3 - l u3^2

    The PDE stepper evaluates this formula on coefficient planes
    (sim_eps._species_rates), bitwise equal to it.
    """
    h1 = p.m1 * u1 / (p.eta1 + u1)
    h2 = p.m2 * u2 / (p.eta2 + u2)
    f1 = p.alpha1 * u1 * (1.0 - u1 - p.beta1 * u2) - h1 * u3
    f2 = p.alpha2 * u2 * (1.0 - u2 - p.beta2 * u1) - h2 * u3
    f3 = (p.gamma1 * h1 + p.gamma2 * h2 - p.k) * u3 - p.l * u3 * u3
    return f1, f2, f3


def kinetics_jacobian(u1, u2, u3, p: ModelParams) -> np.ndarray:
    """Exact Jacobian of the kinetics: (3, 3) at one state, (..., 3, 3) for
    same-shape arrays of states."""
    s1 = p.eta1 + u1
    s2 = p.eta2 + u2
    h1 = p.m1 * u1 / s1
    h2 = p.m2 * u2 / s2
    dh1 = p.m1 * p.eta1 / (s1 * s1)
    dh2 = p.m2 * p.eta2 / (s2 * s2)
    J = np.array(
        [
            [
                p.alpha1 * (1.0 - 2.0 * u1 - p.beta1 * u2) - dh1 * u3,
                -p.alpha1 * p.beta1 * u1,
                -h1,
            ],
            [
                -p.alpha2 * p.beta2 * u2,
                p.alpha2 * (1.0 - 2.0 * u2 - p.beta2 * u1) - dh2 * u3,
                -h2,
            ],
            [
                p.gamma1 * dh1 * u3,
                p.gamma2 * dh2 * u3,
                p.gamma1 * h1 + p.gamma2 * h2 - p.k - 2.0 * p.l * u3,
            ],
        ]
    )
    return np.moveaxis(J, (0, 1), (-2, -1))
