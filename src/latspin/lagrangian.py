"""Lagrangian layer: reduced densities, the instantaneous Lagrangian, derivatives.

Sign conventions for the functional derivatives are pinned by the central
finite-difference oracle, not transcribed from any closed form: for the
quadratic spin-glass density the oracle yields

    delta l / delta nu    = flat(nu)
    delta l / delta gamma = -flat(gamma)   (per axis)

and the analytic implementations must reproduce that.
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
    GridMismatchError,
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
    "delta_l_delta_nu_array",
    "delta_l_delta_gamma_array",
    "fd_gradient_oracle",
    "reduction_identity_gap",
]

SELF_TEST_TOL = 1e-6
FD_EPS_MIN = 1e-7
FD_EPS_MAX = 1e-3


class DensitySpec:
    """Pointwise reduced density value(t, sigma1, sigma2) with fiber derivatives.

    The callables are vectorized over sites: sigma1 has shape (sites..., d),
    sigma2 has shape (dim, sites..., d); value returns (sites...,), d_sigma1
    returns (sites..., d), d_sigma2 returns (dim, sites..., d).

    sigma1 -> d_sigma1 must be an invertible site-local linear map
    (independent of t and sigma2); kinetic_inverse(rho) applies its inverse to
    dual coefficients rho (sites..., d). aep_rhs passes a fresh rho and owns
    the result, so kinetic_inverse may overwrite rho or return it.

    isotropic is measured by self_test: whether d_sigma1 and each axis of
    d_sigma2 are, on its samples, scalar multiples of sigma1 and sigma2_i.
    They are then flat maps of the ad-invariant kappa up to scale, so
    ad*_{sigma1}(d_sigma1) and sum_i ad*_{sigma2_i}(d_sigma2)_i vanish
    identically and aep_rhs skips them. A spec that has not run self_test,
    or failed it, has False, and aep_rhs evaluates the full formula.
    """

    def __init__(self, name, value, d_sigma1, d_sigma2, kinetic_inverse):
        self.name = name
        self.value = value
        self.d_sigma1 = d_sigma1
        self.d_sigma2 = d_sigma2
        self.kinetic_inverse = kinetic_inverse
        self.isotropic = False

    def self_test(self, dim, algebra_dim, seed=0, eps=1e-6):
        """Check the declared fiber derivatives against central differences,
        and set isotropic to whether they are parallel to their arguments."""
        rng = np.random.default_rng(seed)
        worst = skew = 0.0
        for _ in range(5):
            s1 = rng.normal(size=(algebra_dim,))
            s2 = rng.normal(size=(dim, algebra_dim))
            t = float(rng.normal())
            g1 = np.asarray(self.d_sigma1(t, s1, s2), float)
            g2 = np.asarray(self.d_sigma2(t, s1, s2), float)
            scale = max(np.max(np.abs(g1)), np.max(np.abs(g2)), 1.0)
            for a in range(algebra_dim):
                bump = np.zeros_like(s1)
                bump[a] = eps
                fd = (self.value(t, s1 + bump, s2) - self.value(t, s1 - bump, s2)) / (2 * eps)
                worst = max(worst, abs(fd - g1[a]) / scale)
            for i in range(dim):
                for a in range(algebra_dim):
                    bump = np.zeros_like(s2)
                    bump[i, a] = eps
                    fd = (self.value(t, s1, s2 + bump) - self.value(t, s1, s2 - bump)) / (2 * eps)
                    worst = max(worst, abs(fd - g2[i, a]) / scale)
            for s, g in ((s1, g1), *zip(s2, g2)):
                perp = g - (g @ s) / (s @ s) * s
                skew = max(skew, np.max(np.abs(perp)) / scale)
        self.isotropic = bool(worst <= SELF_TEST_TOL and skew <= SELF_TEST_TOL)
        if worst > SELF_TEST_TOL:
            raise ValueError(
                f"density {self.name!r} fiber derivatives disagree with "
                f"finite differences (relative error {worst:.3e})"
            )
        return worst


def spin_glass_spec() -> DensitySpec:
    """Quadratic sigma-model density value = (|sigma1|^2 - sum_i |sigma2_i|^2) / 2."""

    def value(t, s1, s2):
        kin = np.einsum("...a,...a->...", s1, s1)
        pot = np.einsum("i...a,i...a->...", s2, s2)
        return 0.5 * (kin - pot)

    def d_sigma1(t, s1, s2):
        return np.array(s1, dtype=float, copy=True)

    def d_sigma2(t, s1, s2):
        return -np.asarray(s2, float)

    # the kinetic map is the identity, so its inverse returns the rho it is given
    return DensitySpec("spin_glass", value, d_sigma1, d_sigma2,
                       kinetic_inverse=lambda rho: rho)


_REGISTRY = {"spin_glass": spin_glass_spec}


def available_specs():
    return sorted(_REGISTRY)


def get_spec(name: str) -> DensitySpec:
    """Instantiate a registered density, running its derivative self-test."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown lagrangian {name!r}; available: {available_specs()}"
        ) from None
    spec = factory()
    spec.self_test(dim=2, algebra_dim=3)
    return spec


# -- functionals ---------------------------------------------------------------


def reduced_l(spec: DensitySpec, t: float, s: ReducedState) -> float:
    """Reduced Lagrangian: quadrature of value(t, nu, -gamma)."""
    density = spec.value(t, s.nu.values, -s.gamma.comps)
    return integrate(s.grid, density)


def instantaneous_L(spec: DensitySpec, t: float, chi: GroupField,
                    nu_prime: AlgebraField, gamma: ConnectionForm) -> float:
    """Instantaneous Lagrangian on group-field tangent data and a connection.

    Tangent vectors are exchanged in right-trivialized form nu' = (d chi/dt)
    chi^-1. The value is the quadrature of value(t, nu', beta) with

        beta_i = (D_i chi) chi^-1 - Ad(chi) gamma_i,

    which is the G-invariant density evaluated on (chi_dot, D chi - chi gamma)
    translated to the identity. It coincides with the reduced Lagrangian at
    the advected connection: L(t, chi, nu', gamma) = l(t, nu', theta_{chi^-1}
    gamma), exactly on the lattice.
    """
    if chi.grid != gamma.grid or chi.grid != nu_prime.grid:
        raise GridMismatchError("chi, nu' and gamma live on different grids")
    group = chi.group
    beta = right_log_derivative(chi).comps.copy()
    for i in range(gamma.grid.dim):
        beta[i] -= group.ad_arr(chi.values, gamma.comps[i])
    density = spec.value(t, nu_prime.values, beta)
    return integrate(chi.grid, density)


def delta_l_delta_nu_array(spec: DensitySpec, t: float, nu, gamma) -> np.ndarray:
    """delta_l_delta_nu on coefficient arrays nu (sites..., d), gamma (dim, sites..., d)."""
    return spec.d_sigma1(t, nu, -gamma)


def delta_l_delta_gamma_array(spec: DensitySpec, t: float, nu, gamma) -> np.ndarray:
    """delta_l_delta_gamma on coefficient arrays; the sigma2 = -gamma chain rule
    flips the sign."""
    return -spec.d_sigma2(t, nu, -gamma)


def delta_l_delta_nu(spec: DensitySpec, t: float, s: ReducedState) -> DualField:
    """Functional derivative of the reduced Lagrangian in nu (a dual density)."""
    values = delta_l_delta_nu_array(spec, t, s.nu.values, s.gamma.comps)
    return DualField(s.grid, s.group, values)


def delta_l_delta_gamma(spec: DensitySpec, t: float, s: ReducedState) -> DualVectorField:
    """Functional derivative of the reduced Lagrangian in gamma (per axis)."""
    comps = delta_l_delta_gamma_array(spec, t, s.nu.values, s.gamma.comps)
    return DualVectorField(s.grid, s.group, comps)


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


def reduction_identity_gap(spec, t, chi, nu_prime, gamma) -> float:
    """Relative gap between L(t, chi, nu', gamma) and l(t, nu', theta_{chi^-1} gamma)."""
    left = instantaneous_L(spec, t, chi, nu_prime, gamma)
    advected = gauge_act(chi.inverse(), gamma)
    right = reduced_l(spec, t, ReducedState(nu_prime, advected, t))
    return abs(left - right) / max(abs(left), abs(right), 1e-300)
