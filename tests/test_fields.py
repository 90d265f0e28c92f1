import numpy as np
import pytest

from latspin.dynamics import (
    fourier_algebra_field,
    fourier_connection,
    group_field_from_profile,
    pure_gauge_connection,
)
from latspin.fields import (
    ReducedState,
    StepTooLargeError,
    advect_exact,
    cov_diff,
    cov_div,
    curvature,
    gauge_act,
    reconstruct_step,
)
from latspin.lattice import (
    AlgebraField,
    ConnectionForm,
    DualVectorField,
    Grid,
    GridMismatchError,
    GroupField,
    cdiff_array,
    d_alg,
    l2_pair,
    max_row_norm,
    right_log_derivative,
)

EXACT_ADJ = 1e-12


def refine_orders(values):
    values = np.asarray(values, float)
    return np.log2(values[:-1] / values[1:])


# -- gauge action -----------------------------------------------------------------


def test_gauge_act_identity_field(g, grid32):
    gamma = fourier_connection(grid32, g, 2, 0.7, 1)
    out = gauge_act(GroupField.identity(grid32, g), gamma)
    assert np.allclose(out.comps, gamma.comps, atol=1e-15)


def test_gauge_act_on_zero_gives_maurer_cartan(g, grid32):
    lam = group_field_from_profile(grid32, g, 2, 0.5, 2)
    out = gauge_act(lam, ConnectionForm.zeros(grid32, g))
    inv = lam.inverse()
    want = np.empty_like(out.comps)
    for i in range(grid32.dim):
        dlam = (np.roll(lam.values, -1, axis=i) - np.roll(lam.values, 1, axis=i)) / (
            2 * grid32.spacing[i]
        )
        want[i] = g.to_coeffs(inv.values @ dlam)
    assert np.allclose(out.comps, want, atol=1e-14)


def test_gauge_act_composition_is_second_order(g):
    # the discrete affine action composes as a right action up to O(h^2)
    defects = []
    for n in (32, 64, 128):
        grid = Grid((n,), (1.0 / n,))
        l1 = group_field_from_profile(grid, g, 2, 0.5, 3)
        l2 = group_field_from_profile(grid, g, 2, 0.5, 4)
        gamma = fourier_connection(grid, g, 2, 0.6, 5)
        two_step = gauge_act(l2, gauge_act(l1, gamma))
        one_step = gauge_act(l1.compose(l2), gamma)
        defects.append(np.max(np.abs(two_step.comps - one_step.comps)))
    orders = refine_orders(defects)
    assert np.all(orders > 1.7)


def test_gauge_act_inverse_is_exact(g, grid2d16):
    lam = group_field_from_profile(grid2d16, g, 2, 0.6, 6)
    gamma = fourier_connection(grid2d16, g, 2, 0.8, 7)
    back = gauge_act(lam.inverse(), gauge_act(lam, gamma))
    assert np.max(np.abs(back.comps - gamma.comps)) <= 1e-13


def test_gauge_act_grid_mismatch(g, grid32, grid2d16):
    lam = GroupField.identity(grid32, g)
    gamma = ConnectionForm.zeros(grid2d16, g)
    with pytest.raises(GridMismatchError):
        gauge_act(lam, gamma)


# -- covariant differential / divergence ---------------------------------------------


def test_cov_diff_zero_connection(g, grid32):
    zeta = fourier_algebra_field(grid32, g, 2, 0.9, 8)
    out = cov_diff(ConnectionForm.zeros(grid32, g), zeta)
    assert np.array_equal(out.comps, d_alg(zeta).comps)


def test_cov_diff_zero_function(g, grid32):
    gamma = fourier_connection(grid32, g, 2, 0.9, 9)
    out = cov_diff(gamma, AlgebraField.zeros(grid32, g))
    assert np.max(np.abs(out.comps)) == 0.0


def test_cov_diff_constant_inputs_reduce_to_bracket(g, grid32):
    gamma = ConnectionForm(grid32, g, np.tile([0.3, -0.2, 0.5], (1, 32, 1)))
    zeta = AlgebraField(grid32, g, np.tile([1.0, 0.4, -0.6], (32, 1)))
    out = cov_diff(gamma, zeta)
    want = g.bracket_arr(np.array([0.3, -0.2, 0.5]), np.array([1.0, 0.4, -0.6]))
    assert np.allclose(out.comps, np.tile(want, (1, 32, 1)), atol=1e-15)


def test_cov_div_zero_connection(g, grid2d16):
    w = DualVectorField(grid2d16, g, fourier_connection(grid2d16, g, 2, 0.6, 10).comps)
    from latspin.lattice import div_dual

    out = cov_div(ConnectionForm.zeros(grid2d16, g), w)
    assert np.array_equal(out.values, div_dual(w).values)


def test_cov_div_is_negative_adjoint_of_cov_diff(g):
    for grid in (Grid((32,), (1 / 32,)), Grid((16, 16), (1 / 16, 1 / 16))):
        for k in range(25):
            gamma = fourier_connection(grid, g, 3, 0.8, 300 + k)
            w = DualVectorField(grid, g, fourier_connection(grid, g, 3, 0.7, 400 + k).comps)
            zeta = fourier_algebra_field(grid, g, 3, 0.9, 500 + k)
            a = l2_pair(cov_div(gamma, w), zeta)
            b = l2_pair(w, cov_diff(gamma, zeta))
            assert abs(a + b) <= EXACT_ADJ * max(abs(a), abs(b), 1.0)


def test_cov_div_trace_term_vanishes_on_own_flat(g, grid32):
    # ad*_{gamma_i} flat(gamma_i) = 0 for the ad-invariant metric
    gamma = fourier_connection(grid32, g, 2, 0.9, 11)
    w = DualVectorField(grid32, g, gamma.comps.copy())
    from latspin.lattice import div_dual

    out = cov_div(gamma, w)
    assert np.max(np.abs(out.values - div_dual(w).values)) <= 1e-13


# -- curvature -------------------------------------------------------------------


def test_curvature_zero_connection(g, grid2d16):
    f = curvature(ConnectionForm.zeros(grid2d16, g))
    assert f.shape == (1, 16, 16, 3)
    assert np.max(np.abs(f)) == 0.0


def test_curvature_empty_in_one_dimension(g, grid32):
    # a line has no pair of axes, so no block
    f = curvature(fourier_connection(grid32, g, 2, 0.9, 12))
    assert f.shape == (0, 32, 3)
    assert max_row_norm(f) == 0.0


def test_curvature_block_is_the_field_strength(g, grid2d16):
    gamma = fourier_connection(grid2d16, g, 2, 0.7, 18)
    a, b = gamma.comps
    h0, h1 = grid2d16.spacing
    want = cdiff_array(b, 0, h0) - cdiff_array(a, 1, h1) + g.bracket_arr(a, b)
    assert np.array_equal(curvature(gamma), want[None])


def test_pure_gauge_is_flat_to_second_order(g):
    maxima = []
    for n in (16, 32, 64):
        grid = Grid((n, n), (1.0 / n, 1.0 / n))
        gamma = pure_gauge_connection(grid, g, 1, 0.4, 13)
        maxima.append(np.max(np.linalg.norm(curvature(gamma), axis=-1)))
    orders = refine_orders(maxima)
    assert np.all(orders > 1.7)


def test_curvature_equivariance_second_order(g):
    defects = []
    for n in (16, 32, 64):
        grid = Grid((n, n), (1.0 / n, 1.0 / n))
        gamma = fourier_connection(grid, g, 1, 0.5, 14)
        lam = group_field_from_profile(grid, g, 1, 0.5, 15)
        moved = curvature(gauge_act(lam, gamma))
        inv = lam.inverse()
        pushed = g.ad_arr(inv.values, curvature(gamma)[0])[None]
        defects.append(np.max(np.abs(moved - pushed)))
    orders = refine_orders(defects)
    assert np.all(orders > 1.7)


# -- advection -------------------------------------------------------------------


def test_advect_exact_identity(g, grid32):
    gamma0 = fourier_connection(grid32, g, 2, 0.8, 16)
    out = advect_exact(GroupField.identity(grid32, g), gamma0)
    assert np.allclose(out.comps, gamma0.comps, atol=1e-15)


def test_advect_exact_of_zero_is_minus_rld(g):
    # for orthogonal groups chi d(chi^-1) = -(d chi) chi^-1 holds exactly on
    # the lattice (transpose commutes with the centered difference), so this
    # is stronger than the generic second-order statement
    for n in (16, 64):
        grid = Grid((n,), (1.0 / n,))
        chi = group_field_from_profile(grid, g, 2, 0.5, 17)
        out = advect_exact(chi, ConnectionForm.zeros(grid, g))
        want = -right_log_derivative(chi).comps
        assert np.max(np.abs(out.comps - want)) <= 1e-13


def test_advect_preserves_flatness_to_second_order(g):
    # transporting a flat connection by the closed-form solution keeps the
    # curvature at the discretization level
    maxima = []
    for n in (16, 32, 64):
        grid = Grid((n, n), (1.0 / n, 1.0 / n))
        gamma0 = pure_gauge_connection(grid, g, 1, 0.4, 27)
        chi = group_field_from_profile(grid, g, 1, 0.5, 28)
        moved = advect_exact(chi, gamma0)
        maxima.append(np.max(np.linalg.norm(curvature(moved), axis=-1)))
    orders = refine_orders(maxima)
    assert np.all(orders > 1.7)


def test_advect_exact_central_element_acts_trivially(g, grid32):
    # the identity is the center of the rotation group
    chi = group_field_from_profile(grid32, g, 2, 0.5, 18)
    shifted = GroupField(grid32, g, chi.values @ np.eye(3))
    gamma0 = fourier_connection(grid32, g, 2, 0.4, 19)
    assert np.allclose(
        advect_exact(shifted, gamma0).comps, advect_exact(chi, gamma0).comps, atol=1e-14
    )


# -- reconstruction ----------------------------------------------------------------


def test_reconstruct_zero_velocity(g, grid32):
    chi = group_field_from_profile(grid32, g, 2, 0.5, 20)
    out = reconstruct_step(chi, AlgebraField.zeros(grid32, g).values, 0.1)
    assert np.allclose(out.values, chi.values, atol=1e-15)


def test_reconstruct_constant_velocity_from_identity(g, grid32):
    xi = np.array([0.2, -0.1, 0.4])
    nu = AlgebraField(grid32, g, np.tile(xi, (32, 1)))
    out = reconstruct_step(GroupField.identity(grid32, g), nu.values, 0.5)
    assert np.allclose(out.values, g.exp_arr(0.5 * xi), atol=1e-14)


def test_reconstruct_one_parameter_subgroup(g, grid32):
    xi = np.array([0.3, 0.2, -0.5])
    nu = AlgebraField(grid32, g, np.tile(xi, (32, 1)))
    chi = GroupField.identity(grid32, g)
    for _ in range(10):
        chi = reconstruct_step(chi, nu.values, 0.05)
    assert np.allclose(chi.values, g.exp_arr(10 * 0.05 * xi), atol=1e-13)


def test_reconstruct_preserves_membership(g, grid32):
    chi = GroupField.identity(grid32, g)
    nu = fourier_algebra_field(grid32, g, 2, 0.8, 21)
    for _ in range(50):
        chi = reconstruct_step(chi, nu.values, 0.02)
    assert float(np.max(g.membership_defect(chi.values))) <= 1e-12


def test_reconstruct_step_too_large(g, grid32):
    nu = AlgebraField(grid32, g, np.tile([10.0, 0, 0], (32, 1)))
    with pytest.raises(StepTooLargeError):
        reconstruct_step(GroupField.identity(grid32, g), nu.values, 0.2)


# -- reduced state ------------------------------------------------------------------


def test_reduced_state_grid_mismatch(g, grid32, grid2d16):
    nu = AlgebraField.zeros(grid32, g)
    gamma = ConnectionForm.zeros(grid2d16, g)
    with pytest.raises(GridMismatchError):
        ReducedState(nu, gamma, 0.0)
