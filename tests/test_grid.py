"""Tests for the cell-centered grid and the discrete spatial operators."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fastsignal.grid import (
    Field,
    Grid,
    _chemotaxis_div,
    _laplacian,
    make_grid,
    mode_eigenvalues,
    mode_vector,
    neumann_modes,
)


def dense_laplacian_matrix(g: Grid) -> np.ndarray:
    """Independent oracle: assemble the stencil column by column."""
    A = np.zeros((g.n, g.n))
    for j in range(g.n):
        e = np.zeros(g.n)
        e[j] = 1.0
        A[:, j] = _laplacian(e, g.dx)
    return A


def test_make_grid_examples():
    g = make_grid(1.0, 4)
    assert g.dx == 0.25
    assert np.allclose(g.centers, [0.125, 0.375, 0.625, 0.875])
    assert make_grid(2.0, 8).dx == 0.25


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(1.0, 3)
    with pytest.raises(ValueError):
        make_grid(0.0, 16)
    with pytest.raises(ValueError):
        make_grid(-1.0, 16)
    # dx * dx underflows to 0 or overflows to inf
    with pytest.raises(ValueError, match=r"L=1e-200, n=16"):
        make_grid(1e-200, 16)
    with pytest.raises(ValueError, match=r"L=1e\+160, n=16"):
        make_grid(1e160, 16)
    for n in (float("inf"), float("nan")):  # not OverflowError or numpy's cast error
        with pytest.raises(ValueError, match="cell count"):
            make_grid(1.0, n)


def test_field_validation():
    g = make_grid(1.0, 8)
    with pytest.raises(ValueError):
        Field(np.zeros(7), g)
    with pytest.raises(ValueError):
        Field(np.full(8, np.nan), g)


def test_laplacian_of_constant_is_zero():
    g = make_grid(1.0, 16)
    out = _laplacian(np.full(g.n, 3.7), g.dx)
    assert np.allclose(out, 0.0, atol=1e-12)
    zero = _laplacian(np.zeros(g.n), g.dx)
    assert np.all(zero == 0.0)


def test_laplacian_cosine_modes_are_eigenvectors():
    g = make_grid(1.0, 256)
    A = None
    for k in (1, 2, 5, 100, 255):
        phi = mode_vector(g, k)
        ak = -(2.0 / g.dx**2) * (1.0 - np.cos(k * np.pi / g.n))
        out = _laplacian(phi, g.dx)
        assert np.max(np.abs(out - ak * phi)) <= 1e-10 * max(abs(ak), 1.0)
        if A is None:
            A = dense_laplacian_matrix(make_grid(1.0, 32))
    # matrix-vector oracle on a small grid
    gs = make_grid(1.0, 32)
    for k in range(gs.n):
        phi = mode_vector(gs, k)
        assert np.allclose(A @ phi, mode_eigenvalues(gs)[k] * phi, atol=1e-9)


def test_laplacian_linearity_and_gauss():
    rng = np.random.default_rng(7)
    g = make_grid(1.5, 64)
    f1 = rng.standard_normal(g.n)
    f2 = rng.standard_normal(g.n)
    a, b = 2.3, -0.7
    combo = _laplacian(a * f1 + b * f2, g.dx)
    split = a * _laplacian(f1, g.dx) + b * _laplacian(f2, g.dx)
    assert np.allclose(combo, split, atol=1e-9)
    # discrete Gauss: total flux vanishes
    for f in (f1, f2):
        total = g.dx * _laplacian(f, g.dx).sum()
        assert abs(total) <= 1e-9


def test_chemotaxis_divergence_trivial_cases():
    g = make_grid(1.0, 32)
    rng = np.random.default_rng(11)
    u = rng.random(g.n) + 0.5
    assert np.all(_chemotaxis_div(u, np.full(g.n, 2.0), 1.3, g.dx) == 0.0)
    v = rng.standard_normal(g.n)
    assert np.all(_chemotaxis_div(np.zeros(g.n), v, 1.3, g.dx) == 0.0)


def test_chemotaxis_divergence_matches_laplacian_for_unit_density():
    g = make_grid(1.0, 64)
    v = mode_vector(g, 1)
    out = _chemotaxis_div(np.ones(g.n), v, 1.0, g.dx)
    lap = _laplacian(v, g.dx)
    assert np.max(np.abs(out - lap)) <= 1e-12 * np.max(np.abs(lap))


def test_chemotaxis_divergence_conserves_mass():
    rng = np.random.default_rng(3)
    g = make_grid(2.0, 48)
    for _ in range(5):
        u = rng.random(g.n)
        v = rng.standard_normal(g.n)
        out = _chemotaxis_div(u, v, 0.8, g.dx)
        assert abs(g.dx * out.sum()) <= 1e-12


def test_neumann_modes_constant_mode():
    g = make_grid(1.0, 8)
    modes = neumann_modes(g)
    a0, phi0 = modes[0]
    assert a0 == 0.0
    assert np.allclose(phi0.values, 1.0)


def test_neumann_modes_small_grid_eigenvalue():
    g = make_grid(1.0, 4)
    a2 = neumann_modes(g)[2][0]
    assert np.isclose(a2, -2.0 / g.dx**2)
    # oracle: eigendecomposition of the dense stencil matrix
    A = dense_laplacian_matrix(g)
    eig = np.sort(np.linalg.eigvalsh((A + A.T) / 2.0))
    ours = np.sort(mode_eigenvalues(g))
    assert np.allclose(eig, ours, atol=1e-8)


def test_neumann_modes_satisfy_eigen_relation():
    g = make_grid(1.0, 48)
    for ak, phi in neumann_modes(g):
        out = _laplacian(phi.values, g.dx)
        assert np.max(np.abs(out - ak * phi.values)) <= 1e-8


def test_mode_orthogonality_and_norms():
    g = make_grid(1.0, 32)
    modes = neumann_modes(g)
    for k, (_, pk) in enumerate(modes):
        for m, (_, pm) in enumerate(modes):
            ip = g.dx * (pk.values @ pm.values)
            if k != m:
                assert abs(ip) <= 1e-12
            elif k == 0:
                assert np.isclose(ip, g.L, atol=1e-12)
            else:
                assert np.isclose(ip, g.L / 2.0, atol=1e-12)


def where_form_div(u, v, chi, dx):
    """Reference upwind divergence: donor cells picked with np.where, one row."""
    g = (v[1:] - v[:-1]) / dx
    flux = chi * np.where(chi * g > 0.0, u[1:], u[:-1]) * g
    out = np.zeros_like(u)
    out[:-1] += flux
    out[1:] -= flux
    return out / dx, flux


@st.composite
def flux_batches(draw):
    """(B, n) densities and chemicals with one chemotactic coefficient per row."""
    b = draw(st.integers(1, 4))
    n = draw(st.integers(4, 48))
    u = draw(arrays(float, (b, n), elements=st.floats(0.0, 10.0, allow_subnormal=False)))
    v = draw(arrays(float, (b, n), elements=st.floats(-10.0, 10.0, allow_subnormal=False)))
    chi = draw(arrays(float, (b, 1), elements=st.floats(0.0, 5.0, allow_subnormal=False)))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return u, v, sign * chi, 1.0 / n


@settings(max_examples=60, deadline=None)
@given(flux_batches())
def test_batched_chemotaxis_div_conserves_mass(batch):
    u, v, chi, dx = batch
    out = _chemotaxis_div(u, v, chi, dx)
    for b in range(u.shape[0]):
        _, flux = where_form_div(u[b], v[b], chi[b, 0], dx)
        # each face flux enters two cells with opposite signs; only the
        # roundings of the two updates, the division and the sum remain
        bound = 16 * np.finfo(float).eps * np.abs(flux).sum() / dx
        assert abs(out[b].sum()) <= bound


def _subnormal_flux_batch(v):
    # both forms' face fluxes are subnormal here (u chi g ~ 1e-321)
    return (np.full((1, 4), 2.5e-298), np.array([v], dtype=float),
            np.array([[-2.1e-24]]), 0.25)


@settings(max_examples=60, deadline=None)
@given(flux_batches())
@example(_subnormal_flux_batch([0.0, 1.0, 0.0, 1.0]))
@example(_subnormal_flux_batch([0.0, 3.0, 0.0, 7.0]))
def test_batched_chemotaxis_div_matches_where_form(batch):
    u, v, chi, dx = batch
    out = _chemotaxis_div(u, v, chi, dx)
    tiny = np.finfo(float).smallest_subnormal
    for b in range(u.shape[0]):
        ref, flux = where_form_div(u[b], v[b], chi[b, 0], dx)
        scale = np.abs(flux).max() / dx
        # A subnormal product is rounded to an absolute half spacing, not a
        # relative one: the batched form's (chi g) u by tiny / 2, the where
        # form's chi u by tiny / 2 before it is scaled by g.  Each cell takes
        # two face fluxes and a division by dx, so the relative term alone
        # underflows to 0 there and needs this absolute one.
        g = np.abs(np.diff(v[b])).max() / dx
        assert np.max(np.abs(out[b] - ref)) <= 1e-14 * scale + 2 * tiny * (1.0 + g) / dx
