"""Tests for the parameter container and the reaction kinetics."""

import numpy as np
import pytest

from fastsignal.model import (
    ModelParams,
    default_params,
    kinetics,
    kinetics_jacobian,
)


def fd_jacobian(u, p, h=1e-6):
    """Central finite-difference oracle for the kinetics Jacobian."""
    J = np.zeros((3, 3))
    for j in range(3):
        up = list(u)
        um = list(u)
        up[j] += h
        um[j] -= h
        fp = np.array(kinetics(*up, p))
        fm = np.array(kinetics(*um, p))
        J[:, j] = (fp - fm) / (2.0 * h)
    return J


def test_default_params_table_values():
    p = default_params()
    assert p.d1 == p.d2 == p.d3 == 0.1
    assert p.chi1 == p.chi2 == p.chi31 == p.chi32 == 1.0
    assert p.alpha1 == 0.8 and p.alpha2 == 1.0
    assert p.beta1 == 0.6 and p.beta2 == 0.5
    assert p.m1 == 0.3 and p.m2 == 0.1
    assert p.gamma1 == 0.5 and p.gamma2 == 0.3
    assert p.k == 0.1 and p.l == 0.1
    assert p.lambda1 == p.lambda2 == p.lambda3 == 1.0
    assert p.mu1 == p.mu2 == p.mu3 == 0.1
    assert p.zeta1 == p.zeta2 == p.zeta3 == 1.0
    assert p.eta1 == 1.0 and p.eta2 == 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(d1=0.0)
    with pytest.raises(ValueError):
        ModelParams(eta2=-1.0)
    with pytest.raises(ValueError):
        ModelParams(alpha1=-0.1)
    with pytest.raises(ValueError):
        ModelParams(mu3=0.0)
    # non-negative coefficients at zero are fine
    ModelParams(chi1=0.0, m1=0.0)


def test_with_updates_returns_new_instance():
    p = default_params()
    q = p.with_updates(m1=0.7)
    assert q.m1 == 0.7 and p.m1 == 0.3


def test_kinetics_trivial_points():
    p = default_params()
    assert kinetics(0.0, 0.0, 0.0, p) == (0.0, 0.0, 0.0)
    f1, f2, f3 = kinetics(1.0, 0.0, 0.0, p)
    assert f1 == 0.0 and f2 == 0.0 and f3 == 0.0


def test_kinetics_reference_point():
    # values recomputed independently with exact rational arithmetic
    p = default_params()
    f1, f2, f3 = kinetics(1.0, 1.0, 1.0, p)
    assert abs(f1 - (-0.63)) <= 1e-12
    assert abs(f2 - (-0.55)) <= 1e-12
    assert abs(f3 - (-0.11)) <= 1e-12


def test_kinetics_vectorized_matches_scalar():
    p = default_params()
    rng = np.random.default_rng(1)
    u1, u2, u3 = rng.random((3, 40)) * 2.0
    fv = kinetics(u1, u2, u3, p)
    for j in range(40):
        fs = kinetics(u1[j], u2[j], u3[j], p)
        for a, b in zip(fv, fs):
            assert np.isclose(a[j], b, atol=1e-14)


def test_jacobian_at_origin_is_diagonal():
    p = default_params()
    J = kinetics_jacobian(0.0, 0.0, 0.0, p)
    assert np.allclose(J, np.diag([0.8, 1.0, -0.1]), atol=1e-12)


def test_jacobian_reference_entry():
    p = default_params()
    J = kinetics_jacobian(1.0, 1.0, 1.0, p)
    assert abs(J[0, 2] - (-0.15)) <= 1e-12


def test_jacobian_matches_finite_differences():
    p = default_params()
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rng.random(3) * 3.0
        J = kinetics_jacobian(*u, p)
        assert np.max(np.abs(J - fd_jacobian(u, p))) <= 1e-6


def test_stacked_jacobian_equals_per_state_jacobians():
    p = default_params()
    u = np.random.default_rng(6).random((4, 5, 3)) * 2.0
    J = kinetics_jacobian(u[..., 0], u[..., 1], u[..., 2], p)
    assert J.shape == (4, 5, 3, 3)
    for idx in np.ndindex(4, 5):
        assert np.array_equal(J[idx], kinetics_jacobian(*u[idx], p))


def test_logistic_sign_bounds():
    p = default_params()
    rng = np.random.default_rng(9)
    u = rng.random((10_000, 3)) * 4.0
    f1, f2, f3 = kinetics(u[:, 0], u[:, 1], u[:, 2], p)
    assert np.all(f1 <= p.alpha1 * (u[:, 0] - u[:, 0] ** 2) + 1e-12)
    assert np.all(f2 <= p.alpha2 * (u[:, 1] - u[:, 1] ** 2) + 1e-12)
    bound3 = (p.gamma1 * p.m1 + p.gamma2 * p.m2) * u[:, 2] - p.l * u[:, 2] ** 2
    assert np.all(f3 <= bound3 + 1e-12)


def test_quasi_positivity():
    p = default_params()
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.random(2) * 2.0
        assert kinetics(0.0, a, b, p)[0] == 0.0
        assert kinetics(a, 0.0, b, p)[1] == 0.0
        assert kinetics(a, b, 0.0, p)[2] == 0.0

