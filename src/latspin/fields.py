"""Gauge-geometric operators: affine gauge action, covariant calculus, advection.

The affine action theta_Lambda(gamma) = Ad(Lambda^-1) gamma + Lambda^-1 D Lambda
is a right action of the group of lattice gauge transformations up to the
discretization error of the centered difference (second order on smooth
fields). Covariant divergence is the exact negative L2 adjoint of the
covariant differential, with no discretization error at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    AlgebraField,
    ConnectionForm,
    DualField,
    DualVectorField,
    GroupField,
    GridMismatchError,
    _check_same_grid,
    cdiff_array,
    d_array,
    div_array,
    max_row_norm,
)

__all__ = [
    "StepTooLargeError",
    "ReducedState",
    "gauge_act",
    "cov_diff",
    "cov_div",
    "cov_diff_array",
    "cov_div_array",
    "curvature",
    "curvature_max",
    "advect_exact",
    "reconstruct_step",
]

RECONSTRUCT_ANGLE_LIMIT = np.pi / 2


class StepTooLargeError(ValueError):
    """Reconstruction step leaves the injectivity radius of exp."""


@dataclass
class ReducedState:
    """Dynamic reduced pair (nu, gamma) at time t."""

    nu: AlgebraField
    gamma: ConnectionForm
    t: float = 0.0

    def __post_init__(self):
        if self.nu.grid != self.gamma.grid or self.nu.group is not self.gamma.group:
            raise GridMismatchError("nu and gamma live on different grids")

    @property
    def grid(self):
        return self.nu.grid

    @property
    def group(self):
        return self.nu.group


def gauge_act(lam: GroupField, gamma: ConnectionForm) -> ConnectionForm:
    """Affine gauge action: Ad(Lambda^-1) gamma_i + proj(Lambda^-1 D_i Lambda)."""
    _check_same_grid(lam, gamma)
    inv = lam.group.inverse_arr(lam.values)
    comps = np.empty_like(gamma.comps)
    for i in range(gamma.grid.dim):
        comps[i] = _gauge_act_axis(lam, inv, gamma.comps[i], i)
    return ConnectionForm(gamma.grid, lam.group, comps)


def _gauge_act_axis(lam, inv, gamma_i, i) -> np.ndarray:
    """Component i of gauge_act; inv is the inverse of lam's matrices.

    The shift Lambda^-1 D_i Lambda is formed first, so at most three matrix
    fields are live at once, and all of them are freed on return.
    """
    group = lam.group
    shift = inv @ cdiff_array(lam.values, i, lam.grid.spacing[i])
    conj = inv @ group.hat(gamma_i) @ lam.values
    conj += shift
    return group.to_coeffs(conj)


def cov_diff_array(grid, group, gamma, zeta) -> np.ndarray:
    """cov_diff on coefficient arrays: gamma (dim, sites..., d), zeta (sites..., d)."""
    out = d_array(zeta, grid.spacing)
    out += group.bracket_arr(gamma, zeta[None])
    return out


def cov_div_array(grid, group, gamma, w) -> np.ndarray:
    """cov_div on coefficient arrays: gamma and w (dim, sites..., d)."""
    out = div_array(w, grid.spacing)
    out -= np.sum(group.ad_star_arr(gamma, w), axis=0)
    return out


def cov_diff(gamma: ConnectionForm, zeta: AlgebraField) -> ConnectionForm:
    """Covariant differential d zeta + [gamma_i, zeta] per axis."""
    _check_same_grid(gamma, zeta)
    comps = cov_diff_array(gamma.grid, gamma.group, gamma.comps, zeta.values)
    return ConnectionForm(gamma.grid, gamma.group, comps)


def cov_div(gamma: ConnectionForm, w: DualVectorField) -> DualField:
    """Covariant divergence div w - sum_i ad*_{gamma_i} w_i.

    Exactly the negative L2 adjoint of cov_diff for the same gamma.
    """
    _check_same_grid(gamma, w)
    values = cov_div_array(gamma.grid, gamma.group, gamma.comps, w.comps)
    return DualField(gamma.grid, gamma.group, values)


def _field_strength(gamma: ConnectionForm, i: int, j: int) -> np.ndarray:
    """F_ij = D_i gamma_j - D_j gamma_i + [gamma_i, gamma_j] as a coefficient field."""
    grid = gamma.grid
    f = cdiff_array(gamma.comps[j], i, grid.spacing[i])
    f -= cdiff_array(gamma.comps[i], j, grid.spacing[j])
    f += gamma.group.bracket_arr(gamma.comps[i], gamma.comps[j])
    return f


def curvature(gamma: ConnectionForm) -> np.ndarray:
    """Field strength F_ij = D_i gamma_j - D_j gamma_i + [gamma_i, gamma_j].

    Returned as an antisymmetric (dim, dim) block of coefficient fields;
    identically zero in one dimension.
    """
    grid = gamma.grid
    d = gamma.group.algebra_dim
    out = np.zeros((grid.dim, grid.dim) + grid.sizes + (d,))
    for i in range(grid.dim):
        for j in range(i + 1, grid.dim):
            f = _field_strength(gamma, i, j)
            out[i, j] = f
            out[j, i] = -f
    return out


def curvature_max(gamma: ConnectionForm) -> float:
    """Largest pointwise kappa-norm of the field strength.

    The max over the blocks F_ij with i < j, without building the whole
    antisymmetric block: F_ji = -F_ij has the same norms and the diagonal is
    zero. Grids have one or two axes, so there is at most one such block and
    a NaN norm is returned as the whole-block maximum would return it.
    """
    dim = gamma.grid.dim
    return max((max_row_norm(_field_strength(gamma, i, j))
                for i in range(dim) for j in range(i + 1, dim)), default=0.0)


def advect_exact(chi: GroupField, gamma0: ConnectionForm) -> ConnectionForm:
    """Closed-form advected connection theta_{chi^-1}(gamma0)."""
    _check_same_grid(chi, gamma0)
    return gauge_act(chi.inverse(), gamma0)


def reconstruct_step(chi: GroupField, nu, dt: float, stepper=None) -> GroupField:
    """Exponential Euler update chi <- exp(dt nu) chi, sitewise.

    nu is the velocity's coefficient array (sites..., d), as in aep_rhs.
    stepper, when given, is exp(dt nu) as the caller formed it (simulate
    exponentiates both substeps of a small lattice in one call); the angle
    check is made either way.
    """
    angle = dt * max_row_norm(nu)
    if angle >= RECONSTRUCT_ANGLE_LIMIT:
        raise StepTooLargeError(
            f"dt * max|nu| = {angle:.3e} exceeds the per-step limit "
            f"{RECONSTRUCT_ANGLE_LIMIT:.3f}"
        )
    if stepper is None:
        stepper = chi.group.exp_arr(dt * nu)
    return GroupField(chi.grid, chi.group, stepper @ chi.values)
