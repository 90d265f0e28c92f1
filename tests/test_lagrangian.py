import numpy as np
import pytest

from latspin import cli
from latspin.dynamics import (
    fourier_algebra_field,
    fourier_connection,
    group_field_from_profile,
)
from latspin.fields import ReducedState, gauge_act
from latspin.lagrangian import (
    DensitySpec,
    available_specs,
    delta_l_delta_gamma,
    delta_l_delta_nu,
    fd_gradient_oracle,
    get_spec,
    instantaneous_L,
    reduced_l,
    reduction_identity_gap,
    spin_glass_spec,
)
from latspin.lattice import (
    AlgebraField,
    ConnectionForm,
    Grid,
    GridMismatchError,
    GroupField,
    integrate,
    right_log_derivative,
)

from conftest import anisotropic_spec
from reference_group import reference_so3

FD_TOL = 1e-6
FD_EPS = 1e-5
IDENTITY_TOL = 1e-10


@pytest.fixture(scope="module")
def spec():
    return spin_glass_spec()


def random_state(g, grid, seed, nu_amp=0.6, gamma_amp=0.5):
    nu = fourier_algebra_field(grid, g, 2, nu_amp, seed)
    gamma = fourier_connection(grid, g, 2, gamma_amp, seed + 1)
    return ReducedState(nu, gamma, 0.0)


# -- reduced Lagrangian ----------------------------------------------------------


def test_reduced_l_constant_velocity(spec, g, grid32):
    nu = AlgebraField(grid32, g, np.tile([1.0, 0, 0], (32, 1)))
    s = ReducedState(nu, ConnectionForm.zeros(grid32, g), 0.0)
    assert reduced_l(spec, s) == pytest.approx(0.5, abs=1e-14)


def test_reduced_l_constant_connection(spec, g, grid32):
    comps = np.tile([0.6, 0, 0.8], (1, 32, 1))  # |gamma|^2 = 1 at every site
    s = ReducedState(AlgebraField.zeros(grid32, g), ConnectionForm(grid32, g, comps), 0.0)
    assert reduced_l(spec, s) == pytest.approx(-0.5, abs=1e-14)


def test_reduced_l_zero_state(spec, g, grid32):
    s = ReducedState(AlgebraField.zeros(grid32, g), ConnectionForm.zeros(grid32, g), 0.0)
    assert reduced_l(spec, s) == 0.0


# -- instantaneous Lagrangian -------------------------------------------------------


def test_instantaneous_at_identity_equals_reduced(spec, g, grid32):
    s = random_state(g, grid32, 1)
    val = instantaneous_L(spec, GroupField.identity(grid32, g), s.nu, s.gamma)
    assert val == pytest.approx(reduced_l(spec, s), rel=1e-13)


def test_instantaneous_direct_assembly(spec, g, grid32):
    # gamma = 0: the value must match (|nu'|^2 - |(D chi) chi^-1|^2)/2 assembled by hand
    chi = group_field_from_profile(grid32, g, 2, 0.7, 2)
    nu_p = fourier_algebra_field(grid32, g, 2, 0.5, 3)
    val = instantaneous_L(spec, chi, nu_p, ConnectionForm.zeros(grid32, g))
    rld = right_log_derivative(chi).comps
    density = 0.5 * (
        np.einsum("...a,...a->...", nu_p.values, nu_p.values)
        - np.einsum("i...a,i...a->...", rld, rld)
    )
    assert val == pytest.approx(integrate(grid32, density), rel=1e-13)


@pytest.mark.parametrize("operand", ["nu_prime", "gamma"])
@pytest.mark.parametrize("other", ["spacing", "group"])
def test_instantaneous_L_rejects_operands_on_another_grid_or_group(spec, g, operand, other):
    grid = Grid((8,), (1.0 / 32,))
    home = (Grid((8,), (1.0 / 8,)), g) if other == "spacing" else (grid, reference_so3())
    args = {"nu_prime": AlgebraField.zeros(grid, g), "gamma": ConnectionForm.zeros(grid, g)}
    args[operand] = type(args[operand]).zeros(*home)
    with pytest.raises(GridMismatchError):
        instantaneous_L(spec, GroupField.identity(grid, g), **args)


def test_reduction_identity_exact(spec, g):
    for grid in (Grid((32,), (1 / 32,)), Grid((16, 16), (1 / 16, 1 / 16))):
        for k in range(5):
            chi = group_field_from_profile(grid, g, 2, 0.6, 40 + k)
            nu_p = fourier_algebra_field(grid, g, 2, 0.6, 50 + k)
            gamma = fourier_connection(grid, g, 2, 0.6, 60 + k)
            assert reduction_identity_gap(spec, chi, nu_p, gamma) <= IDENTITY_TOL


def test_gauge_invariance_defect_is_second_order(spec, g):
    # the invariance of the instantaneous Lagrangian under the discrete affine
    # action holds to O(h^2): the centered difference of a pointwise product
    # picks up a product-rule defect that vanishes only under refinement
    devs = []
    for n in (32, 64, 128):
        grid = Grid((n,), (1.0 / n,))
        chi = group_field_from_profile(grid, g, 2, 0.5, 4)
        lam = group_field_from_profile(grid, g, 2, 0.5, 5)
        nu_p = fourier_algebra_field(grid, g, 2, 0.6, 6)
        gamma = fourier_connection(grid, g, 2, 0.6, 7)
        a = instantaneous_L(spec, chi, nu_p, gamma)
        b = instantaneous_L(spec, chi.compose(lam), nu_p, gauge_act(lam, gamma))
        devs.append(abs(a - b) / abs(a))
    orders = np.log2(np.array(devs[:-1]) / devs[1:])
    assert np.all(orders > 1.7)


def test_gauge_invariance_exact_for_constant_gauge(spec, g, grid32):
    # a spatially constant transformation has no derivative defect
    chi = group_field_from_profile(grid32, g, 2, 0.5, 8)
    nu_p = fourier_algebra_field(grid32, g, 2, 0.6, 9)
    gamma = fourier_connection(grid32, g, 2, 0.6, 10)
    const = g.exp_arr(np.array([0.7, -0.2, 0.4]))
    lam = GroupField(grid32, g, np.tile(const, (32, 1, 1)))
    a = instantaneous_L(spec, chi, nu_p, gamma)
    b = instantaneous_L(spec, chi.compose(lam), nu_p, gauge_act(lam, gamma))
    assert abs(a - b) / abs(a) <= 1e-12


# -- functional derivatives -----------------------------------------------------------


def test_delta_nu_is_flat_nu(spec, g, grid32):
    s = random_state(g, grid32, 11)
    out = delta_l_delta_nu(spec, s)
    assert np.array_equal(out.values, s.nu.values)


def test_delta_nu_zero(spec, g, grid32):
    s = ReducedState(
        AlgebraField.zeros(grid32, g), fourier_connection(grid32, g, 2, 0.5, 12), 0.0
    )
    assert np.max(np.abs(delta_l_delta_nu(spec, s).values)) == 0.0


def test_delta_gamma_zero(spec, g, grid32):
    s = ReducedState(
        fourier_algebra_field(grid32, g, 2, 0.5, 13), ConnectionForm.zeros(grid32, g), 0.0
    )
    assert np.max(np.abs(delta_l_delta_gamma(spec, s).comps)) == 0.0


def test_delta_gamma_linear(spec, g, grid32):
    s1 = random_state(g, grid32, 14)
    s2 = ReducedState(
        s1.nu, ConnectionForm(grid32, g, 2.0 * s1.gamma.comps), 0.0
    )
    assert np.allclose(
        delta_l_delta_gamma(spec, s2).comps,
        2.0 * delta_l_delta_gamma(spec, s1).comps,
        atol=1e-14,
    )


def test_fd_oracle_pins_delta_nu_sign(spec, g, grid32):
    s = random_state(g, grid32, 15)
    oracle = fd_gradient_oracle(
        lambda f: reduced_l(spec, ReducedState(f, s.gamma, 0.0)), s.nu, FD_EPS
    )
    analytic = delta_l_delta_nu(spec, s)
    scale = max(np.max(np.abs(oracle.values)), 1e-30)
    assert np.max(np.abs(analytic.values - oracle.values)) / scale <= FD_TOL


def test_fd_oracle_pins_delta_gamma_sign(spec, g, grid32):
    # the binding sign check: for the quadratic density the oracle yields
    # -flat(gamma) per axis and the analytic derivative must match it
    s = random_state(g, grid32, 16)
    oracle = fd_gradient_oracle(
        lambda f: reduced_l(spec, ReducedState(s.nu, f, 0.0)), s.gamma, FD_EPS
    )
    analytic = delta_l_delta_gamma(spec, s)
    scale = max(np.max(np.abs(oracle.comps)), 1e-30)
    assert np.max(np.abs(analytic.comps - oracle.comps)) / scale <= FD_TOL
    assert np.allclose(oracle.comps, -s.gamma.comps, atol=1e-9)


def test_fd_oracle_exact_for_linear_functionals(spec, g, grid32):
    probe = fourier_algebra_field(grid32, g, 2, 0.8, 17)
    target = fourier_algebra_field(grid32, g, 2, 0.7, 18)

    def linear(f):
        return integrate(grid32, np.einsum("...a,...a->...", target.values, f.values))

    oracle = fd_gradient_oracle(linear, probe, FD_EPS)
    assert np.allclose(oracle.values, target.values, atol=1e-9)


def test_fd_oracle_richardson_ratio(spec, g):
    # second-order stencil: halving eps shrinks the cubic-term error by ~4
    grid = Grid((4,), (0.25,))
    base = AlgebraField(grid, g, np.tile([0.9, 0.0, 0.0], (4, 1)))

    def cubic(f):
        return integrate(grid, f.values[..., 0] ** 3)

    exact = 3.0 * base.values[..., 0] ** 2
    err = []
    for eps in (1e-3, 5e-4):
        out = fd_gradient_oracle(cubic, base, eps)
        err.append(np.max(np.abs(out.values[..., 0] - exact)))
    assert err[0] / err[1] == pytest.approx(4.0, rel=0.05)


def test_fd_oracle_rejects_bad_eps(spec, g, grid32):
    with pytest.raises(ValueError):
        fd_gradient_oracle(lambda f: 0.0, AlgebraField.zeros(grid32, g), 1.0)


def test_fd_oracle_rejects_nonfinite_functional(spec, g):
    grid = Grid((4,), (0.25,))
    with pytest.raises(ValueError):
        fd_gradient_oracle(lambda f: np.nan, AlgebraField.zeros(grid, g), FD_EPS)


# -- density spec registry -------------------------------------------------------------


def test_registry_lookup():
    assert "spin_glass" in available_specs()
    assert get_spec("spin_glass").name == "spin_glass"
    with pytest.raises(KeyError):
        get_spec("nope")


def test_get_spec_is_a_lookup_of_a_declared_isotropic_density(monkeypatch):
    spec = get_spec("spin_glass")
    assert spec.isotropic and spec is get_spec("spin_glass")
    calls = []
    value = DensitySpec.value
    monkeypatch.setattr(DensitySpec, "value",
                        lambda self, *args: calls.append(args) or value(self, *args))
    cfg = cli.parse_config({
        "grid": {"dim": 1, "sizes": [8], "spacing": [0.125]},
        "group": "SO3",
        "lagrangian": "spin_glass",
        "init": {"nu": {"profile": "zero"}},
        "gamma0": {"profile": "zero"},
        "time": {"dt": 0.01, "steps": 10},
    })
    assert cfg.spec is spec
    assert calls == []  # no finite differences at parse time


@pytest.mark.parametrize("inertia, stiffness", [
    (0.0, 1.0), (1.0, -2.0), (1.0, np.inf), ((1.0, np.nan, 2.0), 1.0),
    ((1.0, 2.0), 1.0), ([[1.0, 2.0, 3.0]], 1.0), ("heavy", 1.0),
])
def test_density_weights_are_positive_scalars_or_three_diagonals(inertia, stiffness):
    with pytest.raises(ValueError):
        DensitySpec("bad", inertia, stiffness)


def test_spin_glass_equals_the_unit_closed_forms_bit_for_bit(g, grid2d16):
    s1 = fourier_algebra_field(grid2d16, g, 2, 0.7, 5).values
    s2 = fourier_connection(grid2d16, g, 2, 0.6, 6).comps
    # whole rows of +0.0 and -0.0, where a sign flip written as a product shows
    s1[1], s1[2] = 0.0, -0.0
    s2[:, 3], s2[:, 4] = 0.0, -0.0
    s2[:, 2], s1[4] = -0.0, 0.0
    spec = get_spec("spin_glass")
    s = ReducedState(AlgebraField(grid2d16, g, s1), ConnectionForm(grid2d16, g, s2))
    rho = s1.copy()
    pairs = [
        (spec.value(s1, s2), 0.5 * (np.einsum("...a,...a->...", s1, s1)
                                    - np.einsum("i...a,i...a->...", s2, s2))),
        (spec.d_sigma1(s1), s1),
        (spec.d_sigma2(s2), -s2),
        (delta_l_delta_nu(spec, s).values, s1),
        (delta_l_delta_gamma(spec, s).comps, -s2),
        (spec.kinetic_inverse(rho), s1),
    ]
    for have, want in pairs:
        assert np.array_equal(have, want)
        assert np.array_equal(np.signbit(have), np.signbit(want))
    for have, _ in pairs[1:5]:
        assert not np.shares_memory(have, s1) and not np.shares_memory(have, s2)
    assert pairs[-1][0] is rho  # the kinetic map is the identity: rho is returned


def fd_derivative_error(spec, dim, seed=0, eps=1e-6):
    """Largest gap between the declared d_sigma1, d_sigma2 and central
    differences of value at random (sigma1, sigma2) on 5 sites, relative to the
    largest declared derivative. value is site-local, so one bump of basis
    component a at every site differences all the sites at once."""
    rng = np.random.default_rng(seed)
    s1, s2 = rng.normal(size=(5, 3)), rng.normal(size=(dim, 5, 3))
    g1, g2 = spec.d_sigma1(s1), spec.d_sigma2(s2)
    fd1, fd2 = np.empty_like(s1), np.empty_like(s2)
    for a in range(3):
        bump = np.zeros_like(s1)
        bump[:, a] = eps
        fd1[:, a] = (spec.value(s1 + bump, s2)
                     - spec.value(s1 - bump, s2)) / (2 * eps)
        for i in range(dim):
            bump = np.zeros_like(s2)
            bump[i, :, a] = eps
            fd2[i, :, a] = (spec.value(s1, s2 + bump)
                            - spec.value(s1, s2 - bump)) / (2 * eps)
    scale = max(np.max(np.abs(g1)), np.max(np.abs(g2)), 1.0)
    return max(np.max(np.abs(fd1 - g1)), np.max(np.abs(fd2 - g2))) / scale


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("density", [spin_glass_spec, anisotropic_spec])
def test_declared_derivatives_match_central_differences(density, dim):
    assert fd_derivative_error(density(), dim) <= FD_TOL


def test_central_differences_catch_a_flipped_d_sigma2():
    spec = spin_glass_spec()
    good = spec.d_sigma2
    spec.d_sigma2 = lambda s2: -good(s2)
    assert fd_derivative_error(spec, dim=1) > FD_TOL
