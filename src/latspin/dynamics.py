"""Time integration of the reduced system and the residual monitors.

The evolved pair is (nu, gamma) with

    d/dt (delta l / delta nu) = -ad*_nu (delta l / delta nu)
                                + cov_div(gamma, delta l / delta gamma)
    d/dt gamma                = -cov_diff(gamma, nu)

stepped with classical RK4. The group trajectory chi(t) is reconstructed from
chi_dot = nu chi by two exponential-Euler half substeps per RK4 step, driven
by the two middle-stage velocities (second-order accurate overall, exact
group membership). Residual monitors evaluate the covariant form of the
equations, the discrete-action stationarity, the advection equation, the
closed-form advection solution, and the curvature.

covariant_residual and compatibility_monitor serve every step 0..steps: their
time differences are centred at interior steps and one-sided at the first and
last steps. monitor_row, the four series monitors, is their composition. They
read steps n-1..n+1 only, as does each probe of variational_residual, so they
run on the Trajectory that simulate passes to its visitor, which holds those.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    ReducedState,
    advect_exact,
    cov_diff,
    cov_div,
    curvature,
    gauge_act,
    reconstruct_step,
)
from .lagrangian import DensitySpec, delta_l_delta_nu, instantaneous_L, reduced_l
from .lattice import (
    AlgebraField,
    ConnectionForm,
    Grid,
    GroupField,
    _check_same_grid,
    div_dual,
    l2_pair,
    max_row_norm,
)
from .lie import MatrixGroup

__all__ = [
    "DivergenceError",
    "ModesError",
    "Trajectory",
    "SimConfig",
    "fourier_algebra_field",
    "fourier_connection",
    "pure_gauge_connection",
    "group_field_from_profile",
    "aep_rhs",
    "simulate",
    "energy",
    "covariant_residual",
    "variational_residual",
    "compatibility_monitor",
    "monitor_row",
]

RECONSTRUCTION_SAFETY = 0.1
# A reconstruction substep must rotate by less than this angle, dt/2 max|nu|,
# inside the injectivity radius of exp.
RECONSTRUCT_ANGLE_LIMIT = np.pi / 2
# On a lattice of at most this many sites, simulate forms the steppers of a
# step's two reconstruction substeps in one exp_arr call, where numpy's cost
# per call, not the arithmetic, sets the time of an exponential. On one core
# with numpy 2.4.6, one call on both took about half the time of two calls at
# 32 sites and 0.9 of it at 1024, but 1.5 times as long at 2048. A larger
# lattice forms them one at a time, so that a step holds one stepper and its
# temporaries.
BATCHED_EXP_SITES = 1024


class DivergenceError(RuntimeError):
    """Integration failed at step, for cause, first seen in field.

    cause "non_finite" with field "nu" or "gamma": the new state holds NaN or
    inf (a non-finite midpoint velocity carries into it). cause
    "step_too_large" with field "chi": a reconstruction substep overruns the
    per-step rotation limit.
    """

    def __init__(self, step: int, cause: str, field: str):
        super().__init__(f"{cause} in {field} at step {step}")
        self.step, self.cause, self.field = step, cause, field


@dataclass
class SimConfig:
    """Resolved simulation setup (profiles already expanded into fields).

    nu0 and gamma0 must live on grid and group; dt must be positive and finite.
    """

    grid: Grid
    group: MatrixGroup
    spec: DensitySpec
    nu0: AlgebraField
    gamma0: ConnectionForm
    dt: float
    steps: int
    cadence: int = 1

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if not math.isfinite(self.dt):
            raise ValueError("dt must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.cadence < 1:
            raise ValueError("cadence must be at least 1")
        _check_same_grid(self, self.nu0)
        _check_same_grid(self, self.gamma0)
        limit = self.dt * self.nu0.max_norm()
        if limit >= RECONSTRUCTION_SAFETY:
            raise ValueError(
                f"dt * max|nu0| = {limit:.3e} exceeds the safety bound "
                f"{RECONSTRUCTION_SAFETY}"
            )


# -- seeded band-limited profiles ---------------------------------------------


def _fourier_mode_table(dim: int, modes: int):
    """Deterministic list of non-zero wave vectors in the positive half-space."""
    if dim == 1:
        return [(k,) for k in range(1, modes + 1)]
    return [(kx, ky) for kx in range(modes + 1) for ky in range(-modes, modes + 1)
            if kx > 0 or ky > 0]


class ModesError(ValueError):
    """A profile's mode count lies outside [1, min(N) // 4] for the grid."""


def _fourier_fields(grid: Grid, modes, amplitude, seed, shape) -> np.ndarray:
    """Seeded band-limited fields, resolution independent for fixed draws: the
    C-contiguous array shape[:-1] + grid.sizes + shape[-1:]. The coefficients
    are one normal draw, in C order of shape and then of the mode table, and
    each mode's phase, cosine and sine are formed once."""
    limit = min(grid.sizes) // 4
    if modes < 1 or modes > limit:
        raise ModesError(f"modes must lie in [1, {limit}] for this grid")
    table = _fourier_mode_table(grid.dim, modes)
    coef = np.random.default_rng(seed).normal(size=shape + (len(table), 2))
    # the sites go between shape[:-1] and shape[-1]
    coef = coef.reshape(shape[:-1] + (1,) * grid.dim + shape[-1:] + (len(table), 2))
    coords = grid.coordinates()
    out = np.zeros(shape[:-1] + grid.sizes + shape[-1:])
    scale = amplitude / np.sqrt(len(table))
    for m, kvec in enumerate(table):
        phase = sum(2.0 * np.pi * k * x / n for k, x, n in zip(kvec, coords, grid.lengths))
        cos, sin = np.cos(phase)[..., None], np.sin(phase)[..., None]
        out += scale * (coef[..., m, 0] * cos + coef[..., m, 1] * sin)
    return out


def fourier_algebra_field(grid, group, modes, amplitude, seed) -> AlgebraField:
    """Seeded band-limited algebra-valued field (same continuum field at any N)."""
    return AlgebraField(grid, group, _fourier_fields(
        grid, modes, amplitude, seed, (group.algebra_dim,)))


def fourier_connection(grid, group, modes, amplitude, seed) -> ConnectionForm:
    return ConnectionForm(grid, group, _fourier_fields(
        grid, modes, amplitude, seed, (grid.dim, group.algebra_dim)))


def group_field_from_profile(grid, group, modes, amplitude, seed) -> GroupField:
    """exp of a seeded band-limited algebra field."""
    xi = fourier_algebra_field(grid, group, modes, amplitude, seed)
    return GroupField(grid, group, group.exp_arr(xi.values))


def pure_gauge_connection(grid, group, modes, amplitude, seed) -> ConnectionForm:
    """Flat connection Lambda^-1 D Lambda for a seeded smooth Lambda."""
    lam = group_field_from_profile(grid, group, modes, amplitude, seed)
    return gauge_act(lam, ConnectionForm.zeros(grid, group))


# -- right-hand side and stepping ----------------------------------------------


def aep_rhs(spec: DensitySpec, grid: Grid, group: MatrixGroup, nu, gamma):
    """Right-hand side (nu_dot, gamma_dot) of the reduced system.

    nu (sites..., d) and gamma (dim, sites..., d) are coefficient arrays; no
    field container is built, so the caller checks finiteness.

    For an isotropic density (scalar inertia and stiffness), delta l/delta nu
    is parallel to nu and each delta l/delta gamma_i to gamma_i, so both ad*
    terms vanish and are not computed; covariant_residual keeps them. For
    spin_glass on arrays whose products do not overflow they are exactly
    +0.0, and subtracting +0.0 keeps every bit. Where the products overflow
    they are NaN (inf - inf) and the skip leaves the rest finite, so a
    diverging run may then fail at another step or with another cause.

    gamma_dot comes first, so the temporaries of cov_diff are freed before
    delta l/delta gamma exists. Both returned arrays are fresh.
    """
    gamma_dot = cov_diff(grid, group, gamma, nu)
    np.negative(gamma_dot, out=gamma_dot)
    w = spec.d_sigma2(gamma)
    if spec.isotropic:
        rho = div_dual(w, grid.spacing)
    else:
        rho = cov_div(grid, group, gamma, w)
        rho -= group.ad_star_arr(nu, spec.d_sigma1(nu))
    nu_dot = spec.kinetic_inverse(rho)
    return nu_dot, gamma_dot


def _stage_input(y, h, k):
    """y + h * k, with the bits of that expression, in the buffer of h * k."""
    out = k * h
    out += y
    return out


def _fold(k, acc, weight):
    """The running sums weight * k + acc, formed in the buffers of k."""
    for kf, a in zip(k, acc):
        kf *= weight
        kf += a
    return k


def _rk4_stages(spec, grid, group, nu, gamma, dt):
    """One RK4 step (nu_new, gamma_new) plus the two midpoint-stage velocities.

    Each stage derivative is folded into one running sum per field once the
    next stage's input is formed from it, in the association
    ((k1 + 2 k2) + 2 k3) + k4 of y + dt/6 (k1 + 2 k2 + 2 k3 + k4), so only one
    derivative is live at a time. aep_rhs returns fresh arrays, which the
    sums overwrite.
    """
    half = 0.5 * dt
    acc = aep_rhs(spec, grid, group, nu, gamma)
    nu_a = _stage_input(nu, half, acc[0])
    k = aep_rhs(spec, grid, group, nu_a, _stage_input(gamma, half, acc[1]))
    nu_b, stage = _stage_input(nu, half, k[0]), _stage_input(gamma, half, k[1])
    acc = _fold(k, acc, 2.0)
    k = aep_rhs(spec, grid, group, nu_b, stage)
    # rebinding stage frees the third stage's gamma before the fourth runs
    stage = _stage_input(nu, dt, k[0]), _stage_input(gamma, dt, k[1])
    acc = _fold(k, acc, 2.0)
    k = aep_rhs(spec, grid, group, *stage)
    for kf, a, y in zip(k, acc, (nu, gamma)):
        kf += a
        kf *= dt / 6.0
        kf += y
    return k[0], k[1], nu_a, nu_b


class Trajectory:
    """The run of simulate: coefficient arrays by step.

    nu, gamma and chi map a held step index to its arrays, (sites..., d),
    (dim, sites..., d) and the group path's matrices (sites..., n, n); step
    k's time is k * dt. grid, group, dt, steps and gamma0 come from the
    configuration (step 0 holds the arrays of its nu0 and gamma0 themselves,
    which nothing here writes to). It holds steps n-1..n+1 at the visit of
    step n.
    """

    def __init__(self, cfg: SimConfig):
        self.grid, self.group, self.gamma0 = cfg.grid, cfg.group, cfg.gamma0
        self.dt, self.steps = cfg.dt, cfg.steps
        self.nu, self.gamma, self.chi = {}, {}, {}

    def state(self, k) -> ReducedState:
        """The reduced state of step k, in containers around its held arrays."""
        return ReducedState(AlgebraField(self.grid, self.group, self.nu[k]),
                            ConnectionForm(self.grid, self.group, self.gamma[k]),
                            k * self.dt)

    def _push(self, k, nu, gamma, chi):
        self.nu[k], self.gamma[k], self.chi[k] = nu, gamma, chi

    def _drop(self, k):
        for held in (self.nu, self.gamma, self.chi):
            held.pop(k, None)


def simulate(cfg: SimConfig, visit) -> None:
    """Integrate the reduced system, reconstructing the group path alongside.

    visit(traj, n) is called for n = 0..steps once step n+1 exists (for the
    last step, after the loop), and step n-1 is dropped after the call, so the
    run holds steps n-1..n+1 and its memory does not grow with steps.

    Raises DivergenceError (carrying the step index, cause and field) as soon
    as the new nu, then the new gamma, holds a non-finite entry (an RK4 stage
    that overflows carries it there), or a reconstruction substep would
    rotate by RECONSTRUCT_ANGLE_LIMIT or more; the visits of earlier steps
    have been made by then.
    """
    grid, group, spec, dt = cfg.grid, cfg.group, cfg.spec, cfg.dt
    half = 0.5 * dt
    traj = Trajectory(cfg)
    nu, gamma = cfg.nu0.values, cfg.gamma0.comps
    chi = GroupField.identity(grid, group).values
    traj._push(0, nu, gamma, chi)
    batched_exp = math.prod(grid.sizes) <= BATCHED_EXP_SITES
    # overflow shows as the DivergenceError, or as inf/nan monitors, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(cfg.steps):
            nu, gamma, nu_a, nu_b = _rk4_stages(spec, grid, group, nu, gamma, dt)
            for field, arr in (("nu", nu), ("gamma", gamma)):
                if not np.isfinite(arr).all():
                    raise DivergenceError(n + 1, "non_finite", field)
            # the midpoint velocities are finite, as the new state is (a
            # non-finite one makes the new gamma non-finite via cov_diff), but
            # a blowing-up state overruns the rotation limit
            if half * max(max_row_norm(nu_a), max_row_norm(nu_b)) >= RECONSTRUCT_ANGLE_LIMIT:
                raise DivergenceError(n + 1, "step_too_large", "chi")
            if batched_exp:
                steppers = group.exp_arr(half * np.array((nu_a, nu_b)))
                chi = reconstruct_step(reconstruct_step(chi, steppers[0]), steppers[1])
            else:
                # each stepper is freed before the next is formed
                chi = reconstruct_step(chi, group.exp_arr(half * nu_a))
                chi = reconstruct_step(chi, group.exp_arr(half * nu_b))
            traj._push(n + 1, nu, gamma, chi)
            visit(traj, n)
            traj._drop(n - 1)
        visit(traj, cfg.steps)


def energy(spec: DensitySpec, s: ReducedState) -> float:
    """Legendre-form energy <delta l/delta nu, nu> - l."""
    return l2_pair(delta_l_delta_nu(spec, s), s.nu) - reduced_l(spec, s)


# -- covariant residual ----------------------------------------------------------


def _time_difference(traj: Trajectory, n: int, at) -> np.ndarray:
    """Time derivative of at(k) at step n: centred inside, one-sided at the ends.

    The stencil spans steps max(n-1, 0) to min(n+1, steps); a trajectory with
    no steps has no time difference and reads zero.
    """
    lo, hi = max(n - 1, 0), min(n + 1, traj.steps)
    if lo == hi:
        return np.zeros_like(at(n))
    out = at(hi) - at(lo)
    out /= (hi - lo) * traj.dt
    return out


def _check_step(traj, n):
    if n < 0 or n > traj.steps:
        raise IndexError(f"step {n} outside the trajectory")


def covariant_residual(spec: DensitySpec, traj: Trajectory, n: int,
                       abar: np.ndarray | None = None) -> np.ndarray:
    """Residual of the covariant form of the field equations at step n.

    Builds the covariant pair (sigma1, sigma2) = (nu, -gamma), takes the fiber
    derivatives of the density there, and evaluates

        R = D_t(d/dsigma1) + div(d/dsigma2) + ad*_{sigma1}(d/dsigma1)
            + sum_i ad*_{sigma2_i}(d/dsigma2)_i

    with D_t the time difference of _time_difference, centred at interior
    steps and one-sided at steps 0 and steps; any other n raises IndexError.
    With a background one-form abar (coefficients (dim, sites..., d)) the
    divergence becomes the abar-covariant one and the ad* weights shift to
    sigma2 + abar; the two evaluations agree identically (the abar terms
    cancel), so any gap is pure roundoff. R comes back unchecked, as its
    (sites..., d) coefficients, so a residual that overflows reads inf or nan.
    """
    _check_step(traj, n)
    group = traj.group
    sigma1, sigma2 = traj.nu[n], -traj.gamma[n]  # the covariant pair
    m_now, w_now = spec.d_sigma1(sigma1), spec.d_sigma2(sigma2)
    res = _time_difference(traj, n, lambda k: spec.d_sigma1(traj.nu[k]))
    if abar is None:
        res += div_dual(w_now, traj.grid.spacing)
    else:
        res += cov_div(traj.grid, group, abar, w_now)
        sigma2 += abar
    res += np.sum(group.ad_star_arr(sigma2, w_now), axis=0)
    res += group.ad_star_arr(sigma1, m_now)
    return res


# -- variational residual ---------------------------------------------------------


def _action_term(spec, traj, chi_n, chi_next):
    """dt L(chi_n, log(chi_next chi_n^-1)/dt, gamma0), one rectangle-rule term
    of the discrete action, from the matrices of chi at two successive steps."""
    grid, group, dt = traj.grid, traj.group, traj.dt
    vel = group.log_arr(chi_next @ group.inverse_arr(chi_n)) / dt
    return dt * instantaneous_L(spec, GroupField(grid, group, chi_n),
                                AlgebraField(grid, group, vel), traj.gamma0)


@functools.lru_cache(maxsize=1)
def _probe_table(steps, sizes, d, probes, seed):
    """The (step, site, basis direction) of each probe, drawn once per run;
    only the table of the latest run is kept."""
    rng = np.random.default_rng(seed)
    return tuple((int(rng.integers(1, steps)),
                  tuple(int(rng.integers(0, sz)) for sz in sizes),
                  int(rng.integers(0, d))) for _ in range(probes))


def variational_residual(spec: DensitySpec, traj: Trajectory,
                         probes: int = 32, eps: float = 1e-5,
                         seed: int = 0) -> float:
    """Stationarity defect of the discrete action along the group path.

    The discrete action is S = sum_n dt L(chi_n, log(chi_{n+1}
    chi_n^-1)/dt, gamma0). Each probe perturbs chi at one random interior
    step, site and basis direction by exp(+-eps zeta) and takes the central
    finite difference of S; only the two action terms touching that step need
    recomputation. The largest |dS| is returned as a density (divided by
    dt times the cell volume) so values are comparable across resolutions.
    This is the independent Euler-Lagrange oracle for simulated trajectories.

    Every call of a run reads the same probe table and evaluates the probes
    whose steps n-1..n+1 traj holds, so the maximum over the visits of a run
    evaluates each probe once and equals the value on the whole trajectory.
    """
    if traj.steps < 2:
        raise ValueError("need at least one interior step")
    grid, group = traj.grid, traj.group
    d = group.algebra_dim
    worst = 0.0
    for n, site, a in _probe_table(traj.steps, grid.sizes, d, probes, seed):
        if not all(k in traj.chi for k in (n - 1, n, n + 1)):
            continue
        coeffs = np.zeros((d,))
        coeffs[a] = 1.0
        before, here, after = (traj.chi[k] for k in (n - 1, n, n + 1))
        action = []
        for sign in (1.0, -1.0):
            mat = here.copy()
            mat[site] = group.exp_arr(sign * eps * coeffs) @ mat[site]
            action.append(_action_term(spec, traj, before, mat)
                          + _action_term(spec, traj, mat, after))
        ds = (action[0] - action[1]) / (2.0 * eps)
        worst = float(np.maximum(worst, abs(ds)))  # keeps a NaN, as max would not
    return worst / (traj.dt * grid.cell_volume)


# -- compatibility monitors --------------------------------------------------------


def compatibility_monitor(traj: Trajectory, n: int) -> dict:
    """Advection residual, curvature maximum and closed-form advection gap at step n.

    The advection residual takes the time difference of _time_difference,
    centred at interior steps and one-sided at steps 0 and steps; any other n
    raises IndexError. Each monitor is reduced to its maximum before the next
    is formed, so the field-sized temporaries of one monitor are freed before
    the next.
    """
    _check_step(traj, n)
    grid, group, gamma = traj.grid, traj.group, traj.gamma[n]
    adv = cov_diff(grid, group, gamma, traj.nu[n])
    adv += _time_difference(traj, n, lambda k: traj.gamma[k])
    advection = max_row_norm(adv)
    del adv
    # closed - gamma, the negation of gamma - closed, has the same norms
    closed = advect_exact(GroupField(grid, group, traj.chi[n]), traj.gamma0).comps
    closed -= gamma
    gap = max_row_norm(closed)
    return {
        "advection_residual": advection,
        "curvature_max": max_row_norm(curvature(ConnectionForm(grid, group, gamma))),
        "exact_advect_gap": gap,
    }


def monitor_row(spec: DensitySpec, traj: Trajectory, n: int) -> dict:
    """The four series monitors at step n: compatibility_monitor with the max
    norm of covariant_residual inserted before the closed-form advection gap."""
    row = compatibility_monitor(traj, n)
    gap = row.pop("exact_advect_gap")
    cov = max_row_norm(covariant_residual(spec, traj, n))
    return {**row, "covariant_residual": cov, "exact_advect_gap": gap}
