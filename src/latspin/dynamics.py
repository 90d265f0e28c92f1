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

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    ReducedState,
    StepTooLargeError,
    advect_exact,
    cov_diff,
    cov_diff_array,
    cov_div,
    cov_div_array,
    curvature,
    gauge_act,
    reconstruct_step,
)
from .lagrangian import (
    DensitySpec,
    delta_l_delta_gamma_array,
    delta_l_delta_nu,
    delta_l_delta_nu_array,
    instantaneous_L,
    reduced_l,
)
from .lattice import (
    AlgebraField,
    ConnectionForm,
    DualField,
    DualVectorField,
    Grid,
    GroupField,
    NonFiniteError,
    _check_same_grid,
    div_array,
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
    table = []
    for kx in range(-modes, modes + 1):
        for ky in range(-modes, modes + 1):
            if (kx, ky) == (0, 0):
                continue
            if kx > 0 or (kx == 0 and ky > 0):
                table.append((kx, ky))
    return table


def _fourier_scalar(grid: Grid, modes: int, amplitude: float, rng) -> np.ndarray:
    """Band-limited random scalar field, resolution independent for fixed draws."""
    table = _fourier_mode_table(grid.dim, modes)
    coords = grid.coordinates()
    out = np.zeros(grid.sizes)
    scale = amplitude / np.sqrt(len(table))
    for kvec in table:
        a, b = rng.normal(size=2)
        phase = np.zeros(grid.sizes)
        for axis, k in enumerate(kvec):
            phase = phase + 2.0 * np.pi * k * coords[axis] / grid.lengths[axis]
        out += scale * (a * np.cos(phase) + b * np.sin(phase))
    return out


class ModesError(ValueError):
    """A profile's mode count lies outside [1, min(N) // 4] for the grid."""


def _check_modes(grid: Grid, modes: int):
    limit = min(grid.sizes) // 4
    if modes < 1 or modes > limit:
        raise ModesError(f"modes must lie in [1, {limit}] for this grid")


def fourier_algebra_field(grid, group, modes, amplitude, seed) -> AlgebraField:
    """Seeded band-limited algebra-valued field (same continuum field at any N)."""
    _check_modes(grid, modes)
    rng = np.random.default_rng(seed)
    comps = [_fourier_scalar(grid, modes, amplitude, rng)
             for _ in range(group.algebra_dim)]
    return AlgebraField(grid, group, np.stack(comps, axis=-1))


def fourier_connection(grid, group, modes, amplitude, seed) -> ConnectionForm:
    _check_modes(grid, modes)
    rng = np.random.default_rng(seed)
    comps = np.stack([
        np.stack([_fourier_scalar(grid, modes, amplitude, rng)
                  for _ in range(group.algebra_dim)], axis=-1)
        for _ in range(grid.dim)
    ])
    return ConnectionForm(grid, group, comps)


def group_field_from_profile(grid, group, modes, amplitude, seed) -> GroupField:
    """exp of a seeded band-limited algebra field."""
    xi = fourier_algebra_field(grid, group, modes, amplitude, seed)
    return GroupField(grid, group, group.exp_arr(xi.values))


def pure_gauge_connection(grid, group, modes, amplitude, seed) -> ConnectionForm:
    """Flat connection Lambda^-1 D Lambda for a seeded smooth Lambda."""
    lam = group_field_from_profile(grid, group, modes, amplitude, seed)
    return gauge_act(lam, ConnectionForm.zeros(grid, group))


# -- right-hand side and stepping ----------------------------------------------


def aep_rhs(spec: DensitySpec, t: float, grid: Grid, group: MatrixGroup, nu, gamma):
    """Right-hand side (nu_dot, gamma_dot) of the reduced system.

    nu (sites..., d) and gamma (dim, sites..., d) are coefficient arrays; no
    field container is built, so the caller checks finiteness.

    For a density that self_test measured isotropic, delta l/delta nu is
    parallel to nu and each delta l/delta gamma_i to gamma_i, so both ad*
    terms vanish and are not computed; covariant_residual keeps them. For
    spin_glass on arrays whose products do not overflow they are exactly
    +0.0, and subtracting +0.0 keeps every bit. Where the products overflow
    they are NaN (inf - inf) and the skip leaves the rest finite, so a
    diverging run may then fail at another step or with another cause.

    gamma_dot comes first, so the temporaries of cov_diff are freed before
    delta l/delta gamma exists. Both returned arrays are fresh.
    """
    gamma_dot = cov_diff_array(grid, group, gamma, nu)
    np.negative(gamma_dot, out=gamma_dot)
    w = delta_l_delta_gamma_array(spec, t, nu, gamma)
    if spec.isotropic:
        rho = div_array(w, grid.spacing)
    else:
        rho = cov_div_array(grid, group, gamma, w)
        rho -= group.ad_star_arr(nu, delta_l_delta_nu_array(spec, t, nu, gamma))
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


def _rk4_stages(spec, t, grid, group, nu, gamma, dt):
    """One RK4 step (nu_new, gamma_new) plus the two midpoint-stage velocities.

    Each stage derivative is folded into one running sum per field once the
    next stage's input is formed from it, in the association
    ((k1 + 2 k2) + 2 k3) + k4 of y + dt/6 (k1 + 2 k2 + 2 k3 + k4), so only one
    derivative is live at a time. aep_rhs returns fresh arrays, which the
    sums overwrite.
    """
    half = 0.5 * dt
    acc = aep_rhs(spec, t, grid, group, nu, gamma)
    nu_a = _stage_input(nu, half, acc[0])
    k = aep_rhs(spec, t + half, grid, group, nu_a, _stage_input(gamma, half, acc[1]))
    nu_b, stage = _stage_input(nu, half, k[0]), _stage_input(gamma, half, k[1])
    acc = _fold(k, acc, 2.0)
    k = aep_rhs(spec, t + half, grid, group, nu_b, stage)
    # rebinding stage frees the third stage's gamma before the fourth runs
    stage = _stage_input(nu, dt, k[0]), _stage_input(gamma, dt, k[1])
    acc = _fold(k, acc, 2.0)
    k = aep_rhs(spec, t + dt, grid, group, *stage)
    for kf, a, y in zip(k, acc, (nu, gamma)):
        kf += a
        kf *= dt / 6.0
        kf += y
    return k[0], k[1], nu_a, nu_b


def _checked(step, field, cls, grid, group, arr):
    """The container cls(grid, group, arr); non-finite arr diverges as field."""
    try:
        return cls(grid, group, arr)
    except NonFiniteError as exc:
        raise DivergenceError(step, "non_finite", field) from exc


class Trajectory:
    """The run of simulate: reduced states and reconstructed group path by step.

    states and group_path map a held step index to its value, and step k's
    time is states[k].t, k * dt; grid, group, dt, steps and gamma0 come from
    the configuration (step 0 holds the configuration's nu0 and gamma0
    themselves, which nothing here writes to). It holds steps n-1..n+1 at the
    visit of step n.
    """

    def __init__(self, cfg: SimConfig):
        self.grid, self.group, self.gamma0 = cfg.grid, cfg.group, cfg.gamma0
        self.dt, self.steps = cfg.dt, cfg.steps
        self.states, self.group_path = {}, {}

    def _push(self, k, state, chi):
        self.states[k] = state
        self.group_path[k] = chi

    def _drop(self, k):
        for held in (self.states, self.group_path):
            held.pop(k, None)


def simulate(cfg: SimConfig, visit) -> None:
    """Integrate the reduced system, reconstructing the group path alongside.

    visit(traj, n) is called for n = 0..steps once step n+1 exists (for the
    last step, after the loop), and step n-1 is dropped after the call, so the
    run holds steps n-1..n+1 and its memory does not grow with steps.

    Raises DivergenceError (carrying the step index, cause and field) as soon
    as the new state holds a non-finite entry (an RK4 stage that overflows
    carries it there), or a reconstruction substep overruns its rotation
    limit; the visits of earlier steps have been made by then.
    """
    grid, group, spec, dt = cfg.grid, cfg.group, cfg.spec, cfg.dt
    traj = Trajectory(cfg)
    state = ReducedState(cfg.nu0, cfg.gamma0, 0.0)
    chi = GroupField.identity(grid, group)
    traj._push(0, state, chi)
    batched_exp = math.prod(grid.sizes) <= BATCHED_EXP_SITES
    for n in range(cfg.steps):
        # overflow is reported once, as the DivergenceError, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            nu_new, gamma_new, nu_a, nu_b = _rk4_stages(
                spec, n * dt, grid, group, state.nu.values, state.gamma.comps, dt)
            state = ReducedState(
                _checked(n + 1, "nu", AlgebraField, grid, group, nu_new),
                _checked(n + 1, "gamma", ConnectionForm, grid, group, gamma_new),
                (n + 1) * dt,
            )
            steppers = (None, None)
            if batched_exp:
                steppers = group.exp_arr((0.5 * dt) * np.array((nu_a, nu_b)))
            try:
                # the midpoint velocities are finite, as the new state is: a
                # non-finite one makes the new gamma non-finite via cov_diff
                for nu_mid, stepper in zip((nu_a, nu_b), steppers):
                    chi = reconstruct_step(chi, nu_mid, 0.5 * dt, stepper)
            except StepTooLargeError as exc:
                # a blowing-up but finite state overruns the rotation limit
                raise DivergenceError(n + 1, "step_too_large", "chi") from exc
        traj._push(n + 1, state, chi)
        visit(traj, n)
        traj._drop(n - 1)
    visit(traj, cfg.steps)


def energy(spec: DensitySpec, t: float, s: ReducedState) -> float:
    """Legendre-form energy <delta l/delta nu, nu> - l."""
    return l2_pair(delta_l_delta_nu(spec, t, s), s.nu) - reduced_l(spec, t, s)


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
                       abar: ConnectionForm | None = None) -> DualField:
    """Residual of the covariant form of the field equations at step n.

    Builds the covariant pair (sigma1, sigma2) = (nu, -gamma), takes the fiber
    derivatives of the density there, and evaluates

        R = D_t(d/dsigma1) + div(d/dsigma2) + ad*_{sigma1}(d/dsigma1)
            + sum_i ad*_{sigma2_i}(d/dsigma2)_i

    with D_t the time difference of _time_difference, centred at interior
    steps and one-sided at steps 0 and steps; any other n raises IndexError.
    With a background one-form abar the divergence becomes the abar-covariant
    one and the ad* weights shift to sigma2 + abar; the two evaluations agree
    identically (the abar terms cancel), so any gap is pure roundoff.
    """
    _check_step(traj, n)
    group = traj.group
    s = traj.states[n]
    sigma1, sigma2 = s.nu.values, -s.gamma.comps  # the covariant pair
    point = (s.t, sigma1, sigma2)
    m_now, w_now = spec.d_sigma1(*point), spec.d_sigma2(*point)
    res = _time_difference(traj, n, lambda k: spec.d_sigma1(
        traj.states[k].t, traj.states[k].nu.values, -traj.states[k].gamma.comps))
    w_field = DualVectorField(traj.grid, group, np.asarray(w_now, float))
    if abar is None:
        res += div_dual(w_field).values
        res += np.sum(group.ad_star_arr(sigma2, w_field.comps), axis=0)
    else:
        res += cov_div(abar, w_field).values
        shifted = sigma2 + abar.comps
        res += np.sum(group.ad_star_arr(shifted, w_field.comps), axis=0)
    res += group.ad_star_arr(sigma1, m_now)
    return DualField(traj.grid, group, res)


# -- variational residual ---------------------------------------------------------


def _action_term(spec, traj, n, chi_n, chi_next):
    """dt L(t_n, chi_n, log(chi_next chi_n^-1)/dt, gamma0), one rectangle-rule
    term of the discrete action, from the matrices of chi at steps n and n+1."""
    grid, group, dt = traj.grid, traj.group, traj.dt
    vel = group.log_arr(chi_next @ group.inverse_arr(chi_n)) / dt
    return dt * instantaneous_L(spec, traj.states[n].t, GroupField(grid, group, chi_n),
                                AlgebraField(grid, group, vel), traj.gamma0)


def variational_residual(spec: DensitySpec, traj: Trajectory,
                         probes: int = 32, eps: float = 1e-5,
                         seed: int = 0) -> float:
    """Stationarity defect of the discrete action along the group path.

    The discrete action is S = sum_n dt L(t_n, chi_n, log(chi_{n+1}
    chi_n^-1)/dt, gamma0). Each probe perturbs chi at one random interior
    step, site and basis direction by exp(+-eps zeta) and takes the central
    finite difference of S; only the two action terms touching that step need
    recomputation. The largest |dS| is returned as a density (divided by
    dt times the cell volume) so values are comparable across resolutions.
    This is the independent Euler-Lagrange oracle for simulated trajectories.

    Every call draws the same probes and evaluates those whose steps n-1..n+1
    traj holds, so the maximum over the visits of a run evaluates each probe
    once and equals the value on the whole trajectory.
    """
    if traj.steps < 2:
        raise ValueError("need at least one interior step")
    rng = np.random.default_rng(seed)
    grid, group = traj.grid, traj.group
    d = group.algebra_dim
    worst = 0.0
    for _ in range(probes):
        n = int(rng.integers(1, traj.steps))
        site = tuple(int(rng.integers(0, sz)) for sz in grid.sizes)
        a = int(rng.integers(0, d))
        if not all(k in traj.group_path for k in (n - 1, n, n + 1)):
            continue
        coeffs = np.zeros((d,))
        coeffs[a] = 1.0
        before, here, after = (traj.group_path[k].values for k in (n - 1, n, n + 1))
        action = []
        for sign in (1.0, -1.0):
            mat = here.copy()
            mat[site] = group.exp_arr(sign * eps * coeffs) @ mat[site]
            action.append(_action_term(spec, traj, n - 1, before, mat)
                          + _action_term(spec, traj, n, mat, after))
        ds = (action[0] - action[1]) / (2.0 * eps)
        worst = max(worst, abs(ds))
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
    s = traj.states[n]
    adv = cov_diff(s.gamma, s.nu).comps
    adv += _time_difference(traj, n, lambda k: traj.states[k].gamma.comps)
    advection = max_row_norm(adv)
    del adv
    # closed - gamma, the negation of gamma - closed, has the same norms
    closed = advect_exact(traj.group_path[n], traj.gamma0).comps
    closed -= s.gamma.comps
    gap = max_row_norm(closed)
    return {
        "advection_residual": advection,
        "curvature_max": max_row_norm(curvature(s.gamma)),
        "exact_advect_gap": gap,
    }


def monitor_row(spec: DensitySpec, traj: Trajectory, n: int) -> dict:
    """The four series monitors at step n: compatibility_monitor with the max
    norm of covariant_residual inserted before the closed-form advection gap."""
    row = compatibility_monitor(traj, n)
    gap = row.pop("exact_advect_gap")
    cov = covariant_residual(spec, traj, n).max_norm()
    return {**row, "covariant_residual": cov, "exact_advect_gap": gap}
