"""Lagrangian layer: reduced densities, the instantaneous Lagrangian, derivatives.

The central finite-difference oracle fd_gradient_oracle is the sign authority:
for a density with inertia I and stiffness K it yields delta l/delta nu =
flat(nu I) and, per axis, delta l/delta gamma_i = -flat(gamma_i K). The
declared closed forms must reproduce that; `verify` and the tests check them.
"""

from __future__ import annotations

import numpy as np

from .fields import ReducedState, gauge_act
from .lattice import (
    AlgebraField,
    ConnectionForm,
    DualField,
    DualVectorField,
    GroupField,
    _check_same_grid,
    integrate,
    right_log_derivative,
)

__all__ = [
    "DensitySpec",
    "spin_glass_spec",
    "get_spec",
    "available_specs",
    "reduced_l",
    "instantaneous_L",
    "delta_l_delta_nu",
    "delta_l_delta_gamma",
    "fd_gradient_oracle",
    "reduction_identity_gap",
]

FD_EPS_MIN = 1e-7
FD_EPS_MAX = 1e-3


def _weight(name, w):
    """A positive scalar, as a float, or a length-3 per-basis diagonal."""
    arr = np.array(w, dtype=float)
    if arr.shape not in ((), (3,)) or not np.all(np.isfinite(arr) & (arr > 0)):
        raise ValueError(f"{name} must be a positive scalar or 3 positive per-basis weights")
    return float(arr) if arr.ndim == 0 else arr


class DensitySpec:
    """The quadratic sigma-model density with inertia I and stiffness K,

        value(sigma1, sigma2) = (<sigma1, sigma1 I> - sum_i <sigma2_i, sigma2_i K>) / 2,

    with I and K positive scalars or length-3 diagonals in the algebra basis.
    sigma1 has shape (sites..., d) and sigma2 (dim, sites..., d); d_sigma1 and
    d_sigma2 return those shapes and value returns (sites...,).
    kinetic_inverse(rho) divides a fresh rho (sites..., d) by I in place.

    isotropic holds when I and K are scalars: d_sigma1 and each axis of
    d_sigma2 are then flat maps of the ad-invariant kappa up to scale, so
    ad*_{sigma1}(d_sigma1) and sum_i ad*_{sigma2_i}(d_sigma2)_i vanish
    identically and aep_rhs skips them.
    """

    def __init__(self, name, inertia, stiffness):
        self.name = name
        self.inertia = _weight("inertia", inertia)
        self.stiffness = _weight("stiffness", stiffness)

    @property
    def isotropic(self) -> bool:
        return isinstance(self.inertia, float) and isinstance(self.stiffness, float)

    def value(self, s1, s2):
        kin = np.einsum("...a,...a->...", s1, s1 * self.inertia)
        pot = np.einsum("i...a,i...a->...", s2, s2 * self.stiffness)
        return 0.5 * (kin - pot)

    def d_sigma1(self, s1):
        return s1 * self.inertia

    def d_sigma2(self, s2):
        return s2 * -self.stiffness

    def kinetic_inverse(self, rho):
        rho /= self.inertia
        return rho


def spin_glass_spec() -> DensitySpec:
    """value = (|sigma1|^2 - sum_i |sigma2_i|^2) / 2: unit inertia and stiffness."""
    return DensitySpec("spin_glass", 1.0, 1.0)


_REGISTRY = {"spin_glass": spin_glass_spec()}


def available_specs():
    return sorted(_REGISTRY)


def get_spec(name: str) -> DensitySpec:
    """The registered density of that name."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown lagrangian {name!r}; available: {available_specs()}")
    return _REGISTRY[name]


# -- functionals ---------------------------------------------------------------


def reduced_l(spec: DensitySpec, s: ReducedState) -> float:
    """Reduced Lagrangian: quadrature of value(nu, -gamma)."""
    density = spec.value(s.nu.values, -s.gamma.comps)
    return integrate(s.grid, density)


def instantaneous_L(spec: DensitySpec, chi: GroupField,
                    nu_prime: AlgebraField, gamma: ConnectionForm) -> float:
    """Instantaneous Lagrangian on group-field tangent data and a connection.

    Tangent vectors are exchanged in right-trivialized form nu' = (d chi/dt)
    chi^-1. The value is the quadrature of value(nu', beta) with

        beta_i = (D_i chi) chi^-1 - Ad(chi) gamma_i,

    which is the G-invariant density evaluated on (chi_dot, D chi - chi gamma)
    translated to the identity. It coincides with the reduced Lagrangian at
    the advected connection: L(chi, nu', gamma) = l(nu', theta_{chi^-1} gamma),
    exactly on the lattice.
    """
    _check_same_grid(chi, gamma)
    _check_same_grid(chi, nu_prime)
    group = chi.group
    beta = right_log_derivative(chi).comps.copy()
    for i in range(gamma.grid.dim):
        beta[i] -= group.ad_arr(chi.values, gamma.comps[i])
    density = spec.value(nu_prime.values, beta)
    return integrate(chi.grid, density)


def delta_l_delta_nu(spec: DensitySpec, s: ReducedState) -> DualField:
    """Functional derivative of the reduced Lagrangian in nu (a dual density)."""
    return DualField(s.grid, s.group, spec.d_sigma1(s.nu.values))


def delta_l_delta_gamma(spec: DensitySpec, s: ReducedState) -> DualVectorField:
    """Functional derivative of the reduced Lagrangian in gamma (per axis):
    -d_sigma2(-gamma) = d_sigma2(gamma), as d_sigma2 is linear."""
    return DualVectorField(s.grid, s.group, spec.d_sigma2(s.gamma.comps))


def fd_gradient_oracle(functional, x, eps: float):
    """Central finite-difference functional gradient, as a density.

    Perturbs every site and coefficient of x (an AlgebraField or a
    ConnectionForm), divides by the cell volume so the result pairs with
    l2_pair, and returns the matching dual object. This is the sign authority
    for all analytic functional derivatives.
    """
    if not (FD_EPS_MIN <= eps <= FD_EPS_MAX):
        raise ValueError(f"eps must lie in [{FD_EPS_MIN:g}, {FD_EPS_MAX:g}]")
    if isinstance(x, AlgebraField):
        arr, rebuild, out_cls = x.values, lambda v: AlgebraField(x.grid, x.group, v), DualField
    elif isinstance(x, ConnectionForm):
        arr, rebuild, out_cls = x.comps, lambda v: ConnectionForm(x.grid, x.group, v), DualVectorField
    else:
        raise TypeError("oracle expects an AlgebraField or ConnectionForm")
    flat = arr.ravel()
    grad = np.empty_like(flat)
    work = flat.copy()
    for k in range(flat.size):
        work[k] = flat[k] + eps
        f_plus = functional(rebuild(work.reshape(arr.shape)))
        work[k] = flat[k] - eps
        f_minus = functional(rebuild(work.reshape(arr.shape)))
        work[k] = flat[k]
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError("functional returned a non-finite value")
        grad[k] = (f_plus - f_minus) / (2.0 * eps)
    grad /= x.grid.cell_volume
    return out_cls(x.grid, x.group, grad.reshape(arr.shape))


def reduction_identity_gap(spec, chi, nu_prime, gamma) -> float:
    """Relative gap between L(chi, nu', gamma) and l(nu', theta_{chi^-1} gamma)."""
    left = instantaneous_L(spec, chi, nu_prime, gamma)
    advected = gauge_act(chi.inverse(), gamma)
    right = reduced_l(spec, ReducedState(nu_prime, advected))
    return abs(left - right) / max(abs(left), abs(right), 1e-300)
