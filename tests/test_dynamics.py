import numpy as np
import pytest

from latspin import dynamics
from latspin.dynamics import (
    DivergenceError,
    SimConfig,
    _rk4_stages,
    aep_rhs,
    compatibility_monitor,
    covariant_residual,
    energy,
    fourier_algebra_field,
    fourier_connection,
    monitor_row,
    pure_gauge_connection,
    simulate,
    variational_residual,
)
from latspin.fields import (
    ReducedState,
    advect_exact,
    cov_diff,
    cov_div,
    curvature,
)
from latspin.lagrangian import (
    DensitySpec,
    delta_l_delta_gamma,
    delta_l_delta_nu,
    get_spec,
    spin_glass_spec,
)
from latspin.lattice import (
    AlgebraField,
    ConnectionForm,
    Grid,
    GridMismatchError,
    GroupField,
    NonFiniteError,
    d_alg,
    integrate,
)

from conftest import whole_trajectory
from reference_group import reference_so3

ENERGY_DRIFT_TOL = 1e-6
ABAR_TOL = 1e-12


@pytest.fixture(scope="module")
def spec():
    return spin_glass_spec()


def make_cfg(g, grid, seed, dt, steps, nu_amp=0.3, gamma_amp=0.2, pure_gauge=False,
             modes=None):
    if modes is None:
        modes = max(1, min(2, min(grid.sizes) // 4))
    nu0 = fourier_algebra_field(grid, g, modes, nu_amp, seed)
    if pure_gauge:
        gamma0 = pure_gauge_connection(grid, g, modes, gamma_amp, seed + 1)
    else:
        gamma0 = fourier_connection(grid, g, modes, gamma_amp, seed + 1)
    return SimConfig(grid, g, spin_glass_spec(), nu0, gamma0, dt, steps)


def plane_wave_state(g, grid, amp=0.4):
    x = grid.coordinates()[0]
    nu = np.zeros(grid.sizes + (3,))
    nu[..., 0] = amp * np.sin(2 * np.pi * x)
    return ReducedState(AlgebraField(grid, g, nu), ConnectionForm.zeros(grid, g), 0.0)


def plane_wave_exact(g, grid, t, amp=0.4):
    # same-axis fields make the system exactly linear; the centered stencil
    # symbol s = sin(w h)/h turns it into a single harmonic oscillator
    x = grid.coordinates()[0]
    h = grid.spacing[0]
    w = 2 * np.pi
    s = np.sin(w * h) / h
    nu = np.zeros(grid.sizes + (3,))
    nu[..., 0] = amp * np.cos(s * t) * np.sin(w * x)
    gam = np.zeros((1,) + grid.sizes + (3,))
    gam[0, ..., 0] = -amp * np.sin(s * t) * np.cos(w * x)
    return ReducedState(AlgebraField(grid, g, nu), ConnectionForm(grid, g, gam), t)


# -- right-hand side ------------------------------------------------------------


def test_rhs_zero_connection(spec, g, grid32):
    nu = fourier_algebra_field(grid32, g, 2, 0.7, 1)
    s = ReducedState(nu, ConnectionForm.zeros(grid32, g), 0.0)
    nu_dot, gamma_dot = aep_rhs(spec, 0.0, s.grid, s.group, s.nu.values, s.gamma.comps)
    assert np.max(np.abs(nu_dot)) <= 1e-13
    assert np.allclose(gamma_dot, -d_alg(nu).comps, atol=1e-14)


def test_rhs_zero_velocity(spec, g, grid32):
    gamma = fourier_connection(grid32, g, 2, 0.7, 2)
    s = ReducedState(AlgebraField.zeros(grid32, g), gamma, 0.0)
    nu_dot, gamma_dot = aep_rhs(spec, 0.0, s.grid, s.group, s.nu.values, s.gamma.comps)
    assert np.max(np.abs(gamma_dot)) == 0.0
    # for the quadratic density nu_dot = -sharp(div flat(gamma))
    from latspin.lattice import DualVectorField, div_dual

    want = -div_dual(DualVectorField(grid32, g, gamma.comps.copy())).values
    assert np.allclose(nu_dot, want, atol=1e-13)


def test_rhs_plane_wave_matches_linear_oracle(spec, g, grid32):
    s = plane_wave_state(g, grid32)
    nu_dot, gamma_dot = aep_rhs(spec, 0.0, s.grid, s.group, s.nu.values, s.gamma.comps)
    x = grid32.coordinates()[0]
    h = grid32.spacing[0]
    sym = np.sin(2 * np.pi * h) / h
    assert np.max(np.abs(nu_dot)) <= 1e-13
    want = -0.4 * sym * np.cos(2 * np.pi * x)
    assert np.allclose(gamma_dot[0, :, 0], want, atol=1e-13)


def container_rhs(spec, t, s):
    """The right-hand side written with the field containers, as the oracle."""
    m = delta_l_delta_nu(spec, t, s)
    rho = cov_div(s.gamma, delta_l_delta_gamma(spec, t, s))
    rho.values -= s.group.ad_star_arr(s.nu.values, m.values)
    nu_dot = spec.kinetic_inverse(rho.values)
    return nu_dot, -cov_diff(s.gamma, s.nu).comps


def anisotropic_spec():
    """spin_glass with inertia diag(1, 2, 3) and stiffness diag(3, 1, 2): both
    ad* terms of the right-hand side become non-zero."""
    inertia, stiffness = np.array([1.0, 2.0, 3.0]), np.array([3.0, 1.0, 2.0])

    def value(t, s1, s2):
        kin = np.einsum("...a,...a->...", inertia * s1, s1)
        return 0.5 * (kin - np.einsum("i...a,i...a->...", stiffness * s2, s2))

    return DensitySpec("anisotropic", value, lambda t, s1, s2: inertia * s1,
                       lambda t, s1, s2: -stiffness * s2,
                       kinetic_inverse=lambda rho: rho / inertia)


@pytest.mark.parametrize("sizes", [(32,), (16, 12)])
@pytest.mark.parametrize("generic", [False, True])
@pytest.mark.parametrize("density", [spin_glass_spec, anisotropic_spec])
def test_array_rhs_matches_the_container_formula_bit_for_bit(g, sizes, generic, density):
    spec = density()
    spec.self_test(dim=len(sizes), algebra_dim=3)
    group = reference_so3() if generic else g
    grid = Grid(sizes, tuple(1.0 / n for n in sizes))
    nu = fourier_algebra_field(grid, group, 2, 0.7, 5).values
    gamma = fourier_connection(grid, group, 2, 0.6, 6).comps
    # whole rows of +0.0 and -0.0, where a changed operation order flips signs
    nu[1], nu[2] = 0.0, -0.0
    gamma[:, 3], gamma[:, 4] = 0.0, -0.0
    gamma[:, 2], nu[4] = -0.0, 0.0
    s = ReducedState(AlgebraField(grid, group, nu), ConnectionForm(grid, group, gamma), 0.25)
    got = aep_rhs(spec, 0.25, grid, group, nu, gamma)
    for have, want in zip(got, container_rhs(spec, 0.25, s)):
        assert np.array_equal(have, want)
        assert np.array_equal(np.signbit(have), np.signbit(want))


def scaled_isotropic_spec():
    """Isotropic but not spin_glass: inertia 2 and stiffness 3 on every axis."""

    def value(t, s1, s2):
        kin = np.einsum("...a,...a->...", s1, s1)
        return kin - 1.5 * np.einsum("i...a,i...a->...", s2, s2)

    return DensitySpec("scaled", value, lambda t, s1, s2: 2.0 * s1,
                       lambda t, s1, s2: -3.0 * s2,
                       kinetic_inverse=lambda rho: rho / 2.0)


@pytest.mark.parametrize("density, isotropic", [
    (spin_glass_spec, True), (scaled_isotropic_spec, True), (anisotropic_spec, False),
])
def test_self_test_measures_isotropy(density, isotropic):
    spec = density()
    assert spec.isotropic is False  # unmeasured: aep_rhs runs the full formula
    spec.isotropic = not isotropic  # a wrong flag is overwritten by the measurement
    spec.self_test(dim=2, algebra_dim=3)
    assert spec.isotropic is isotropic


def test_registered_spin_glass_skips_the_ad_star_terms(g, grid32, monkeypatch):
    calls = []
    monkeypatch.setattr(g, "ad_star_arr", lambda *args: calls.append(args))
    nu = fourier_algebra_field(grid32, g, 2, 0.7, 5).values
    gamma = fourier_connection(grid32, g, 2, 0.6, 6).comps
    aep_rhs(get_spec("spin_glass"), 0.0, grid32, g, nu, gamma)
    assert calls == []


def test_skip_keeps_finite_what_overflows_in_the_full_formula(g, grid32):
    # At a row near 1e155 the skipped products nu_b nu_c - nu_c nu_b are
    # inf - inf = NaN, while the rest of the right-hand side stays finite.
    # A run diverging this way may fail at a later step, or with another
    # cause, than it would with the full formula.
    spec = spin_glass_spec()
    spec.self_test(dim=1, algebra_dim=3)
    nu = fourier_algebra_field(grid32, g, 2, 0.7, 5)
    gamma = fourier_connection(grid32, g, 2, 0.6, 6)
    nu.values[3] = 1e155
    with np.errstate(over="ignore", invalid="ignore"):
        got = aep_rhs(spec, 0.0, grid32, g, nu.values, gamma.comps)
        full = container_rhs(spec, 0.0, ReducedState(nu, gamma, 0.0))
    assert np.all(np.isfinite(got[0]))
    assert np.all(np.isnan(full[0][3])) and np.all(np.isfinite(np.delete(full[0], 3, 0)))
    assert np.array_equal(got[1], full[1])


@pytest.mark.parametrize("generic", [False, True])
def test_skipped_ad_star_terms_vanish_for_a_scaled_isotropic_density(g, generic):
    # the skip is exact in exact arithmetic; with factors other than +-1 the
    # full formula's ad* terms are roundoff, not +0.0
    spec = scaled_isotropic_spec()
    spec.self_test(dim=2, algebra_dim=3)
    group = reference_so3() if generic else g
    grid = Grid((16, 12), (1.0 / 16, 1.0 / 12))
    nu = fourier_algebra_field(grid, group, 2, 0.7, 5)
    gamma = fourier_connection(grid, group, 2, 0.6, 6)
    got = aep_rhs(spec, 0.0, grid, group, nu.values, gamma.comps)
    want = container_rhs(spec, 0.0, ReducedState(nu, gamma, 0.0))
    for have, full in zip(got, want):
        assert np.allclose(have, full, rtol=0.0, atol=1e-12 * np.max(np.abs(full)))


# -- RK4 -------------------------------------------------------------------------


def rk4_step(spec, t, s, dt):
    """One step of simulate's RK4 integrator on a ReducedState."""
    nu, gamma, _, _ = _rk4_stages(spec, t, s.grid, s.group, s.nu.values, s.gamma.comps, dt)
    return ReducedState(AlgebraField(s.grid, s.group, nu),
                        ConnectionForm(s.grid, s.group, gamma), t + dt)


@pytest.mark.parametrize("sizes", [(32,), (16, 12)])
@pytest.mark.parametrize("density", [spin_glass_spec, anisotropic_spec])
def test_rk4_step_matches_the_textbook_formula_bit_for_bit(g, sizes, density):
    spec = density()
    grid = Grid(sizes, tuple(1.0 / n for n in sizes))
    nu = fourier_algebra_field(grid, g, 2, 0.7, 7).values
    gamma = fourier_connection(grid, g, 2, 0.6, 8).comps
    nu[1], gamma[:, 2] = 0.0, -0.0
    t, dt = 0.3, 0.01

    def f(tt, y):
        return aep_rhs(spec, tt, grid, g, *y)

    y = (nu, gamma)
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, [a + 0.5 * dt * k for a, k in zip(y, k1)])
    k3 = f(t + 0.5 * dt, [a + 0.5 * dt * k for a, k in zip(y, k2)])
    k4 = f(t + dt, [a + dt * k for a, k in zip(y, k3)])
    want = [a + dt / 6.0 * (p + 2 * q + 2 * r + w)
            for a, p, q, r, w in zip(y, k1, k2, k3, k4)]
    # the two midpoint-stage velocities that drive the group reconstruction
    want += [nu + 0.5 * dt * k1[0], nu + 0.5 * dt * k2[0]]
    out = _rk4_stages(spec, t, grid, g, nu, gamma, dt)
    assert len(out) == len(want)
    for have, expect in zip(out, want):
        assert np.array_equal(have, expect)
        assert np.array_equal(np.signbit(have), np.signbit(expect))


@pytest.mark.parametrize("sizes", [(32,), (8, 6)])
@pytest.mark.parametrize("density", [spin_glass_spec, anisotropic_spec])
def test_a_non_finite_midpoint_velocity_makes_the_new_gamma_non_finite(g, sizes, density):
    # why simulate checks only the new state: a midpoint velocity that is not
    # finite reaches the new gamma through the next stage's cov_diff
    spec = density()
    spec.self_test(dim=len(sizes), algebra_dim=3)
    grid = Grid(sizes, tuple(1.0 / n for n in sizes))
    rng = np.random.default_rng(11)
    overflowed = 0
    for scale in (1e100, 1e300, 1e306, 1e307):
        for dt in (1e-3, 1.0, 1e3):
            nu = rng.normal(size=sizes + (3,)) * scale
            gamma = rng.normal(size=(len(sizes),) + sizes + (3,)) * scale
            with np.errstate(all="ignore"):
                _, gamma_new, nu_a, nu_b = _rk4_stages(spec, 0.0, grid, g, nu, gamma, dt)
            if not (np.isfinite(nu_a).all() and np.isfinite(nu_b).all()):
                overflowed += 1
                assert not np.isfinite(gamma_new).all()
    assert overflowed


def test_rk4_zero_state_fixed_point(spec, g, grid32):
    s = ReducedState(AlgebraField.zeros(grid32, g), ConnectionForm.zeros(grid32, g), 0.0)
    out = rk4_step(spec, 0.0, s, 0.01)
    assert np.max(np.abs(out.nu.values)) == 0.0
    assert np.max(np.abs(out.gamma.comps)) == 0.0
    assert out.t == pytest.approx(0.01)


def test_rk4_constant_velocity_stays_constant(spec, g, grid32):
    nu = AlgebraField(grid32, g, np.tile([0.4, -0.2, 0.1], (32, 1)))
    s = ReducedState(nu, ConnectionForm.zeros(grid32, g), 0.0)
    out = rk4_step(spec, 0.0, s, 0.01)
    assert np.allclose(out.nu.values, nu.values, atol=1e-14)
    assert np.max(np.abs(out.gamma.comps)) <= 1e-14


def test_rk4_fourth_order_against_plane_wave(spec, g, grid32):
    errs = []
    for dt in (0.02, 0.01):
        s = plane_wave_state(g, grid32)
        t = 0.0
        while t < 0.2 - 1e-12:
            s = rk4_step(spec, t, s, dt)
            t += dt
        exact = plane_wave_exact(g, grid32, t)
        errs.append(
            max(
                np.max(np.abs(s.nu.values - exact.nu.values)),
                np.max(np.abs(s.gamma.comps - exact.gamma.comps)),
            )
        )
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.35)


def test_one_rk4_step_matches_semidiscrete_oracle(spec, g, grid32):
    dt = 0.01
    s = plane_wave_state(g, grid32)
    out = rk4_step(spec, 0.0, s, dt)
    exact = plane_wave_exact(g, grid32, dt)
    err = max(
        np.max(np.abs(out.nu.values - exact.nu.values)),
        np.max(np.abs(out.gamma.comps - exact.gamma.comps)),
    )
    assert err <= 40.0 * dt**5


# -- simulate ----------------------------------------------------------------------


def test_simulate_zero_steps(spec, g, grid32):
    cfg = make_cfg(g, grid32, 3, dt=0.01, steps=0)
    traj = whole_trajectory(cfg)
    assert traj.steps == 0
    assert len(traj.states) == 1 and len(traj.group_path) == 1
    assert np.array_equal(traj.group_path[0].values[0], np.eye(3))


def test_simulate_equilibrium_stays_zero(spec, g, grid32):
    cfg = SimConfig(
        grid32, g, spin_glass_spec(),
        AlgebraField.zeros(grid32, g), ConnectionForm.zeros(grid32, g),
        dt=0.01, steps=10,
    )
    traj = whole_trajectory(cfg)
    for s in traj.states.values():
        assert np.max(np.abs(s.nu.values)) == 0.0
        assert np.max(np.abs(s.gamma.comps)) == 0.0


def test_simulate_energy_conservation(spec, g, grid32):
    cfg = make_cfg(g, grid32, 4, dt=1e-3, steps=1000, nu_amp=0.5, gamma_amp=0.3)
    traj = whole_trajectory(cfg)
    e0 = energy(spec, 0.0, traj.states[0])
    drift = abs(energy(spec, 1.0, traj.states[traj.steps]) - e0) / abs(e0)
    assert drift <= ENERGY_DRIFT_TOL


def test_simulate_divergence_detected(spec, g, grid32):
    # dt far beyond the stability limit of the wave-like system
    cfg = make_cfg(g, grid32, 5, dt=1.0, steps=500, nu_amp=0.02, gamma_amp=0.1)
    with pytest.raises(DivergenceError) as err:
        whole_trajectory(cfg)
    assert err.value.step >= 1


def test_simulate_divergence_inside_an_rk4_stage(spec, g, grid32):
    # a stage overflows before the step completes; the stage's field
    # container rejects it and simulate reports the step
    cfg = SimConfig(
        grid32, g, spec, AlgebraField.zeros(grid32, g),
        fourier_connection(grid32, g, 2, 1.0, 3), dt=1e100, steps=3,
    )
    with pytest.raises(DivergenceError) as err:
        whole_trajectory(cfg)
    assert err.value.step == 1
    assert isinstance(err.value.__cause__, NonFiniteError)
    assert (err.value.cause, err.value.field) == ("non_finite", "nu")


def test_simulate_so3_matches_generic_descriptor_bit_for_bit(spec, g, grid2d16):
    # the so(3) closed-form kernels against the structure-tensor path; only
    # exp is shared (set on the instance), as the reference's scipy expm
    # gives other bits than the Rodrigues formula
    clone = reference_so3()
    clone.exp_arr = g.exp_arr
    fast, generic = (
        whole_trajectory(SimConfig(
            grid2d16, group, spec,
            fourier_algebra_field(grid2d16, group, 2, 0.4, 41),
            fourier_connection(grid2d16, group, 2, 0.3, 42), dt=0.005, steps=10,
        ))
        for group in (g, clone)
    )
    states = list(zip(fast.states.values(), generic.states.values()))
    pairs = [(a.nu.values, b.nu.values) for a, b in states]
    pairs += [(a.gamma.comps, b.gamma.comps) for a, b in states]
    pairs += [(a.values, b.values)
              for a, b in zip(fast.group_path.values(), generic.group_path.values())]
    assert len(pairs) == 33
    for a, b in pairs:
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("sizes", [(32,), (16, 12)])
def test_batched_substep_exponentials_match_one_per_substep_bit_for_bit(
        spec, g, sizes, monkeypatch):
    # a small lattice exponentiates both reconstruction substeps in one call,
    # a large one each on its own; angles both below and above the series
    # cutoff of _so3_exp occur in these runs
    grid = Grid(sizes, tuple(1.0 / n for n in sizes))
    cfg = SimConfig(grid, g, spec, fourier_algebra_field(grid, g, 2, 0.5, 1),
                    fourier_connection(grid, g, 2, 0.3, 2), dt=0.001, steps=12)
    batched = whole_trajectory(cfg)
    monkeypatch.setattr(dynamics, "BATCHED_EXP_SITES", 0)
    single = whole_trajectory(cfg)
    for a, b in zip(batched.group_path.values(), single.group_path.values()):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(np.signbit(a.values), np.signbit(b.values))


def test_simconfig_rejects_large_dt(spec, g, grid32):
    nu0 = AlgebraField(grid32, g, np.tile([2.0, 0, 0], (32, 1)))
    with pytest.raises(ValueError):
        SimConfig(grid32, g, spec, nu0, ConnectionForm.zeros(grid32, g), dt=0.1, steps=1)


@pytest.mark.parametrize("dt", [np.nan, np.inf])
def test_simconfig_rejects_non_finite_dt(spec, g, grid32, dt):
    # a NaN dt would otherwise first show as a divergence at step 1, and an
    # infinite one passes the safety bound when nu0 is zero (inf * 0 is NaN)
    with pytest.raises(ValueError, match="dt must be finite"):
        SimConfig(grid32, g, spec, AlgebraField.zeros(grid32, g),
                  ConnectionForm.zeros(grid32, g), dt=dt, steps=1)


@pytest.mark.parametrize("field", ["nu0", "gamma0"])
@pytest.mark.parametrize("other", ["spacing", "group"])
def test_simconfig_rejects_fields_on_another_grid_or_group(spec, g, field, other):
    # otherwise step 0 would report the fields' grid and every later step the
    # configuration's, and only advect_exact in a monitor would notice
    grid = Grid((8,), (1.0 / 32,))
    home = (Grid((8,), (1.0 / 8,)), g) if other == "spacing" else (grid, reference_so3())
    fields = {"nu0": AlgebraField.zeros(grid, g), "gamma0": ConnectionForm.zeros(grid, g)}
    fields[field] = type(fields[field]).zeros(*home)
    with pytest.raises(GridMismatchError):
        SimConfig(grid, g, spec, fields["nu0"], fields["gamma0"], dt=0.01, steps=1)


# -- energy ------------------------------------------------------------------------


def test_energy_quadratic_expansion(spec, g, grid32):
    s = ReducedState(
        fourier_algebra_field(grid32, g, 2, 0.7, 6),
        fourier_connection(grid32, g, 2, 0.5, 7),
        0.0,
    )
    direct = 0.5 * integrate(
        grid32,
        np.einsum("...a,...a->...", s.nu.values, s.nu.values)
        + np.einsum("i...a,i...a->...", s.gamma.comps, s.gamma.comps),
    )
    assert energy(spec, 0.0, s) == pytest.approx(direct, rel=1e-13)


def test_energy_zero_state(spec, g, grid32):
    s = ReducedState(AlgebraField.zeros(grid32, g), ConnectionForm.zeros(grid32, g), 0.0)
    assert energy(spec, 0.0, s) == 0.0


def test_energy_even_in_velocity(spec, g, grid32):
    s = ReducedState(
        fourier_algebra_field(grid32, g, 2, 0.7, 8),
        fourier_connection(grid32, g, 2, 0.5, 9),
        0.0,
    )
    flipped = ReducedState(AlgebraField(grid32, g, -s.nu.values), s.gamma, 0.0)
    assert energy(spec, 0.0, s) == pytest.approx(energy(spec, 0.0, flipped), rel=1e-14)


# -- covariant residual ---------------------------------------------------------------


def test_covariant_residual_zero_trajectory(spec, g, grid32):
    cfg = SimConfig(
        grid32, g, spin_glass_spec(),
        AlgebraField.zeros(grid32, g), ConnectionForm.zeros(grid32, g),
        dt=0.01, steps=4,
    )
    traj = whole_trajectory(cfg)
    assert covariant_residual(spec, traj, 2).max_norm() == 0.0


def test_covariant_residual_background_independence(spec, g, grid32):
    cfg = make_cfg(g, grid32, 10, dt=0.005, steps=8)
    traj = whole_trajectory(cfg)
    abar = fourier_connection(grid32, g, 2, 1.1, 11)
    for n in (1, 4, 7):
        r0 = covariant_residual(spec, traj, n)
        ra = covariant_residual(spec, traj, n, abar)
        scale = max(r0.max_norm(), 1.0)
        assert np.max(np.abs(ra.values - r0.values)) <= ABAR_TOL * scale


def test_covariant_residual_index_range(spec, g, grid32):
    # the residual serves every step 0..steps, one-sided at the ends, and
    # rejects a step outside the trajectory
    traj = whole_trajectory(make_cfg(g, grid32, 12, dt=0.005, steps=4))
    for n in (0, traj.steps):
        assert np.isfinite(covariant_residual(spec, traj, n).max_norm())
    for bad in (-1, traj.steps + 1):
        with pytest.raises(IndexError):
            covariant_residual(spec, traj, bad)


def covariant_residual_max(spec, traj):
    """Largest pointwise covariant residual norm over the interior steps."""
    return max(covariant_residual(spec, traj, n).max_norm() for n in range(1, traj.steps))


def test_covariant_residual_second_order(spec, g):
    worsts = []
    for n in (16, 32, 64):
        grid = Grid((n,), (1.0 / n,))
        cfg = make_cfg(g, grid, 13, dt=0.25 / n, steps=2 * n, modes=1)
        worsts.append(covariant_residual_max(spec, whole_trajectory(cfg)))
    orders = np.log2(np.array(worsts[:-1]) / worsts[1:])
    assert np.all(orders > 1.7)


def test_covariant_residual_second_order_in_dt_with_both_ad_star_terms(g):
    # spin_glass makes both ad* terms of the right-hand side vanish; the
    # anisotropic density keeps them, so a sign or ordering defect in either
    # one stalls the residual at O(1) instead of O(dt^2)
    spec = anisotropic_spec()
    grid = Grid((16, 12), (1.0 / 16, 1.0 / 12))
    nu0 = fourier_algebra_field(grid, g, 2, 0.5, 3)
    gamma0 = fourier_connection(grid, g, 2, 0.4, 4)
    worsts = [covariant_residual_max(spec, whole_trajectory(
        SimConfig(grid, g, spec, nu0, gamma0, 0.08 / steps, steps)))
        for steps in (8, 16, 32)]
    orders = np.log2(np.array(worsts[:-1]) / worsts[1:])
    assert np.all(orders >= 1.7), (worsts, orders)


# -- variational residual ---------------------------------------------------------------


def test_variational_residual_equilibrium(spec, g, grid32):
    cfg = SimConfig(
        grid32, g, spec,
        AlgebraField.zeros(grid32, g), ConnectionForm.zeros(grid32, g),
        dt=0.01, steps=6,
    )
    traj = whole_trajectory(cfg)
    assert variational_residual(spec, traj, probes=16, eps=1e-5, seed=0) <= 1e-10


def test_variational_residual_flags_perturbed_path(spec, g, grid32):
    cfg = make_cfg(g, grid32, 15, dt=0.01, steps=20)
    traj = whole_trajectory(cfg)
    base = variational_residual(spec, traj, probes=32, eps=1e-5, seed=1)
    bump = fourier_algebra_field(grid32, g, 2, 0.02, 16)
    stepper = g.exp_arr(bump.values)
    for k in range(1, traj.steps):
        traj.group_path[k] = GroupField(grid32, g, stepper @ traj.group_path[k].values)
    assert variational_residual(spec, traj, probes=32, eps=1e-5, seed=1) >= 10 * base


# -- compatibility monitors ----------------------------------------------------------


def test_monitor_zero_trajectory(spec, g, grid32):
    cfg = SimConfig(
        grid32, g, spin_glass_spec(),
        AlgebraField.zeros(grid32, g), ConnectionForm.zeros(grid32, g),
        dt=0.01, steps=4,
    )
    mon = compatibility_monitor(whole_trajectory(cfg), 2)
    assert mon["advection_residual"] == 0.0
    assert mon["curvature_max"] == 0.0
    assert mon["exact_advect_gap"] == 0.0


def test_monitor_advection_second_order(spec, g):
    worsts = []
    for n in (16, 32, 64):
        grid = Grid((n,), (1.0 / n,))
        traj = whole_trajectory(make_cfg(g, grid, 17, dt=0.25 / n, steps=2 * n, modes=1))
        worsts.append(
            max(compatibility_monitor(traj, k)["advection_residual"]
                for k in range(1, traj.steps))
        )
    orders = np.log2(np.array(worsts[:-1]) / worsts[1:])
    assert np.all(orders > 1.7)


def test_monitor_index_range(spec, g, grid32):
    # compatibility_monitor serves the first and last steps, where monitor_row
    # reads it, and rejects a step outside the trajectory
    traj = whole_trajectory(make_cfg(g, grid32, 18, dt=0.01, steps=3))
    for n in (0, traj.steps):
        mon = compatibility_monitor(traj, n)
        assert monitor_row(spec, traj, n) == {
            "advection_residual": mon["advection_residual"],
            "curvature_max": mon["curvature_max"],
            "covariant_residual": covariant_residual(spec, traj, n).max_norm(),
            "exact_advect_gap": mon["exact_advect_gap"],
        }
    for bad in (-1, traj.steps + 1):
        with pytest.raises(IndexError):
            compatibility_monitor(traj, bad)


# -- series rows -----------------------------------------------------------------------


def one_sided_reference(spec, traj, n):
    """Endpoint monitors in dynamic form from a forward (n = 0) or backward difference."""
    other = traj.states[1 if n == 0 else n - 1]
    sign = 1.0 if n == 0 else -1.0
    s = traj.states[n]
    m = delta_l_delta_nu(spec, s.t, s).values
    dm = sign * (delta_l_delta_nu(spec, other.t, other).values - m) / traj.dt
    dgamma = sign * (other.gamma.comps - s.gamma.comps) / traj.dt
    w = delta_l_delta_gamma(spec, s.t, s)
    res = dm - cov_div(s.gamma, w).values + s.group.ad_star_arr(s.nu.values, m)
    closed = advect_exact(traj.group_path[n], traj.gamma0)

    def max_norm(a):
        return float(np.max(np.linalg.norm(a, axis=-1)))

    return {
        "advection_residual": max_norm(dgamma + cov_diff(s.gamma, s.nu).comps),
        "curvature_max": max_norm(curvature(s.gamma)),
        "covariant_residual": max_norm(res),
        "exact_advect_gap": max_norm(s.gamma.comps - closed.comps),
    }


def test_monitor_row_endpoints_interior_and_short_runs(spec, g):
    grid = Grid((8, 8), (0.125, 0.125))
    traj = whole_trajectory(make_cfg(g, grid, 19, dt=0.01, steps=4))
    for n in (0, traj.steps):
        row = monitor_row(spec, traj, n)
        ref = one_sided_reference(spec, traj, n)
        assert list(row) == list(ref)
        for key, value in ref.items():
            assert row[key] == pytest.approx(value, rel=1e-12, abs=1e-15), (n, key)
        assert row["covariant_residual"] > 0.0
    for n in range(1, traj.steps):
        mon = compatibility_monitor(traj, n)
        assert monitor_row(spec, traj, n) == {
            "advection_residual": mon["advection_residual"],
            "curvature_max": mon["curvature_max"],
            "covariant_residual": covariant_residual(spec, traj, n).max_norm(),
            "exact_advect_gap": mon["exact_advect_gap"],
        }
    for steps in (0, 1, 2):
        short = whole_trajectory(make_cfg(g, grid, 20, dt=0.01, steps=steps))
        for n in range(steps + 1):
            assert all(np.isfinite(v) for v in monitor_row(spec, short, n).values())


@pytest.mark.parametrize("steps", [0, 1, 2, 5])
def test_simulate_visits_a_three_step_window(spec, g, grid2d16, steps):
    cfg = make_cfg(g, grid2d16, 23, dt=0.01, steps=steps)
    traj = whole_trajectory(cfg)
    seen = []

    def visit(window, n):
        assert sorted(window.states) == list(range(max(n - 1, 0), min(n + 1, steps) + 1))
        assert sorted(window.group_path) == sorted(window.states)
        assert (window.steps, window.dt) == (steps, cfg.dt)
        assert window.grid is cfg.grid and window.group is cfg.group
        assert np.array_equal(window.gamma0.comps, traj.gamma0.comps)
        for k in window.states:
            assert window.states[k].t == traj.states[k].t == k * cfg.dt
            assert np.array_equal(window.states[k].nu.values, traj.states[k].nu.values)
            assert np.array_equal(window.states[k].gamma.comps, traj.states[k].gamma.comps)
            assert np.array_equal(window.group_path[k].values, traj.group_path[k].values)
        assert monitor_row(spec, window, n) == monitor_row(spec, traj, n)
        seen.append(n)

    simulate(cfg, visit)
    assert seen == list(range(steps + 1))


def test_simulate_visits_every_step_before_a_divergence(spec, g, grid32):
    # dt beyond the stability limit: step 5 fails
    cfg = make_cfg(g, grid32, 5, dt=0.2, steps=500, nu_amp=0.02, gamma_amp=0.1)
    seen = []
    with pytest.raises(DivergenceError) as err:
        simulate(cfg, lambda window, n: seen.append(n))
    # step n is visited once step n + 1 exists
    assert err.value.step > 2
    assert seen == list(range(err.value.step - 1))
