"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here; nothing is deferred to later calibration.
Criterion 1 asserts gauge invariance exactly (to GAUGE_INV_TOL) on the
transformations for which the discrete affine action is exact, and asserts
second-order refinement of the O(h^2) defect that the centred difference
leaves on all others.
"""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from latspin import cli, dynamics, lagrangian
from latspin.fields import ReducedState, cov_diff, cov_div, gauge_act
from latspin.lattice import (
    AlgebraField,
    ConnectionForm,
    DualVectorField,
    Grid,
    GroupField,
    d_alg,
    div_dual,
    l2_pair,
)
from latspin.lie import so3

from conftest import whole_trajectory

GAUGE_INV_TOL = 1e-10
ADJOINT_TOL = 1e-12
FD_MATCH_TOL = 1e-6
FD_EPS = 1e-5
ORDER_MIN = 1.7
ABAR_TOL = 1e-12
ENERGY_TOL = 1e-6
LIE_TOL = 1e-12

LADDER_1D = {
    "grid": {"dim": 1, "sizes": [16], "spacing": [1.0 / 16]},
    "group": "SO3",
    "lagrangian": "spin_glass",
    "init": {"nu": {"profile": "fourier", "modes": 1, "amplitude": 0.3, "seed": 11}},
    "gamma0": {"profile": "fourier", "modes": 1, "amplitude": 0.2, "seed": 12},
    "time": {"dt": 0.25 / 16, "steps": 32},
}

LADDER_2D = {
    "grid": {"dim": 2, "sizes": [16, 16], "spacing": [1.0 / 16, 1.0 / 16]},
    "group": "SO3",
    "lagrangian": "spin_glass",
    "init": {"nu": {"profile": "fourier", "modes": 1, "amplitude": 0.1, "seed": 22}},
    "gamma0": {"profile": "pure_gauge", "modes": 1, "amplitude": 0.1, "seed": 21},
    "time": {"dt": 0.15 / 16, "steps": 32},
}

REFERENCE_RUN = {
    "grid": {"dim": 1, "sizes": [32], "spacing": [1.0 / 32]},
    "group": "SO3",
    "lagrangian": "spin_glass",
    "init": {"nu": {"profile": "fourier", "modes": 2, "amplitude": 0.5, "seed": 1}},
    "gamma0": {"profile": "zero"},
    "time": {"dt": 0.001, "steps": 1000},
    "output": {"cadence": 100},
}


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'} {name}: {detail}")


@pytest.fixture(scope="module")
def g():
    return so3()


@pytest.fixture(scope="module")
def spec():
    return lagrangian.spin_glass_spec()


@pytest.fixture(scope="module")
def ladder_1d():
    return cli.ladder_measurements(LADDER_1D, [16, 32, 64],
                                   probes=40, probe_eps=FD_EPS, probe_seed=13)


@pytest.fixture(scope="module")
def ladder_2d():
    return cli.ladder_measurements(LADDER_2D, [16, 32, 64],
                                   probes=40, probe_eps=FD_EPS, probe_seed=23)


def _gauge_deviation(spec, chi, lam, nu_p, gamma):
    """Relative change of L under chi -> chi Lambda, gamma -> theta_Lambda(gamma)."""
    base = lagrangian.instantaneous_L(spec, 0.0, chi, nu_p, gamma)
    moved = lagrangian.instantaneous_L(
        spec, 0.0, chi.compose(lam), nu_p, gauge_act(lam, gamma)
    )
    return abs(moved - base) / max(abs(base), abs(moved))


def _gauge_samples(g, grid):
    """The 20 seeded (chi, Lambda, nu', gamma) samples of criterion 1 on one grid."""
    for k in range(20):
        yield (dynamics.group_field_from_profile(grid, g, 2, 0.5, 10 + k),
               dynamics.group_field_from_profile(grid, g, 2, 0.5, 40 + k),
               dynamics.fourier_algebra_field(grid, g, 2, 0.6, 70 + k),
               dynamics.fourier_connection(grid, g, 2, 0.6, 100 + k))


def test_criterion_1_gauge_invariance(g, spec):
    """Invariance of the instantaneous Lagrangian under the discrete affine action.

    (a) Exact, to GAUGE_INV_TOL, on the coarsest grids for two classes of
    transformation: a spatially constant Lambda at arbitrary chi, which has
    no derivative defect, and an arbitrary local Lambda at chi = identity,
    the orbit that defines the reduced l, where gauge_act(Lambda^-1, .)
    inverts gauge_act(Lambda, .) exactly.
    (b) For a local Lambda at arbitrary chi, the worst deviation over the
    samples at each level refines at order >= ORDER_MIN.

    Exact local invariance at arbitrary chi is not asserted. The centred
    difference of a pointwise product carries a product-rule defect, so the
    affine action composes as a right action only to O(h^2); exactness for
    every chi would force l(nu', .) to be constant along a map that differs
    from the identity by that defect. Removing it needs a different
    discretization of the connection (link variables on edges).
    """
    exact, coarsest, orders = 0.0, 0.0, []
    for dim, sizes in ((1, (32, 64, 128)), (2, (16, 32, 64))):
        worst = []
        for n in sizes:
            grid = Grid((n,) * dim, (1.0 / n,) * dim)
            identity = GroupField.identity(grid, g)
            devs = []
            for chi, lam, nu_p, gamma in _gauge_samples(g, grid):
                devs.append(_gauge_deviation(spec, chi, lam, nu_p, gamma))
                if n == sizes[0]:
                    const = np.broadcast_to(lam.values[(0,) * dim], lam.values.shape)
                    const = GroupField(grid, g, const.copy())
                    exact = max(exact,
                                _gauge_deviation(spec, chi, const, nu_p, gamma),
                                _gauge_deviation(spec, identity, lam, nu_p, gamma))
            worst.append(max(devs))
        coarsest = max(coarsest, worst[0])
        orders.append(cli.fit_order([1.0 / n for n in sizes], worst))
    ok = exact <= GAUGE_INV_TOL and min(orders) >= ORDER_MIN
    report(1, "gauge invariance of the instantaneous Lagrangian", ok,
           f"exact classes max rel deviation {exact:.3e} (tol {GAUGE_INV_TOL:.1e}); "
           f"local defect {coarsest:.3e} at the coarsest level refines at order "
           f"1-D {orders[0]:.2f}, 2-D {orders[1]:.2f} (min {ORDER_MIN})")
    assert exact <= GAUGE_INV_TOL, (
        f"constant-Lambda / identity-chi deviation {exact:.3e} exceeds {GAUGE_INV_TOL:.1e}"
    )
    assert min(orders) >= ORDER_MIN, (
        f"local gauge defect refines at orders {orders}, below {ORDER_MIN}"
    )


def test_criterion_2_summation_by_parts(g):
    worst = 0.0
    for dim, n in ((1, 32), (2, 16)):
        grid = Grid((n,) * dim, (1.0 / n,) * dim)
        for k in range(50):
            gamma = dynamics.fourier_connection(grid, g, 2, 0.8, 300 + k)
            w = DualVectorField(grid, g,
                                dynamics.fourier_connection(grid, g, 2, 0.7, 400 + k).comps)
            zeta = dynamics.fourier_algebra_field(grid, g, 2, 0.9, 500 + k)
            a = l2_pair(div_dual(w), zeta)
            b = l2_pair(w, d_alg(zeta))
            worst = max(worst, abs(a + b) / max(abs(a), abs(b), 1.0))
            a = l2_pair(cov_div(gamma, w), zeta)
            b = l2_pair(w, cov_diff(gamma, zeta))
            worst = max(worst, abs(a + b) / max(abs(a), abs(b), 1.0))
    ok = worst <= ADJOINT_TOL
    report(2, "summation by parts / covariant adjointness", ok,
           f"max scaled defect {worst:.3e} (tol {ADJOINT_TOL:.1e})")
    assert ok


def test_criterion_3_fd_oracle_agreement(g, spec):
    grid = Grid((32,), (1.0 / 32,))
    nu = dynamics.fourier_algebra_field(grid, g, 2, 0.6, 800)
    gamma = dynamics.fourier_connection(grid, g, 2, 0.6, 801)
    state = ReducedState(nu, gamma, 0.0)
    oracle_nu = lagrangian.fd_gradient_oracle(
        lambda f: lagrangian.reduced_l(spec, 0.0, ReducedState(f, gamma, 0.0)),
        nu, FD_EPS,
    )
    analytic_nu = lagrangian.delta_l_delta_nu(spec, 0.0, state)
    err_nu = np.max(np.abs(analytic_nu.values - oracle_nu.values)) / max(
        np.max(np.abs(oracle_nu.values)), 1e-30
    )
    oracle_g = lagrangian.fd_gradient_oracle(
        lambda f: lagrangian.reduced_l(spec, 0.0, ReducedState(nu, f, 0.0)),
        gamma, FD_EPS,
    )
    analytic_g = lagrangian.delta_l_delta_gamma(spec, 0.0, state)
    err_g = np.max(np.abs(analytic_g.comps - oracle_g.comps)) / max(
        np.max(np.abs(oracle_g.comps)), 1e-30
    )
    ok = max(err_nu, err_g) <= FD_MATCH_TOL
    report(3, "finite-difference oracle agreement", ok,
           f"rel err nu {err_nu:.3e}, gamma {err_g:.3e} (tol {FD_MATCH_TOL:.1e})")
    assert ok


def test_criterion_4_variational_order(ladder_1d):
    order = cli.fit_order([m["h"] for m in ladder_1d],
                          [m["variational_residual"] for m in ladder_1d])
    ok = order >= ORDER_MIN
    report(4, "action stationarity order (dynamic vs variational)", ok,
           f"fitted order {order:.2f} (min {ORDER_MIN})")
    assert ok


def test_criterion_5_covariant_order_and_background(g, spec, ladder_1d):
    order = cli.fit_order([m["h"] for m in ladder_1d],
                          [m["covariant_residual"] for m in ladder_1d])
    cfg_raw = json.loads(json.dumps(LADDER_1D))
    cfg_raw["grid"]["sizes"] = [32]
    cfg_raw["grid"]["spacing"] = [1.0 / 32]
    cfg_raw["time"] = {"dt": 0.25 / 32, "steps": 64}
    cfg = cli.parse_config(cfg_raw)
    traj = whole_trajectory(cfg)
    abar = dynamics.fourier_connection(cfg.grid, g, 2, 0.9, 901)
    gap = 0.0
    for n in range(1, traj.steps):
        r0 = dynamics.covariant_residual(spec, traj, n)
        ra = dynamics.covariant_residual(spec, traj, n, abar)
        w = lagrangian.delta_l_delta_gamma(spec, traj.states[n].t, traj.states[n])
        scale = max(r0.max_norm(), abar.max_norm() * w.max_norm(), 1.0)
        gap = max(gap, float(np.max(np.abs(ra.values - r0.values))) / scale)
    ok = order >= ORDER_MIN and gap <= ABAR_TOL
    report(5, "covariant residual order and background independence", ok,
           f"fitted order {order:.2f} (min {ORDER_MIN}), background gap {gap:.3e} "
           f"(tol {ABAR_TOL:.1e})")
    assert order >= ORDER_MIN
    assert gap <= ABAR_TOL


def test_criterion_6_compatibility_orders(ladder_2d):
    hs = [m["h"] for m in ladder_2d]
    orders = {
        key: cli.fit_order(hs, [m[key] for m in ladder_2d])
        for key in ("curvature_max", "advection_residual", "exact_advect_gap")
    }
    ok = all(v >= ORDER_MIN for v in orders.values())
    report(6, "compatibility: flatness, advection, closed-form transport", ok,
           ", ".join(f"{k} {v:.2f}" for k, v in orders.items()) + f" (min {ORDER_MIN})")
    assert ok, orders


def test_equivalence_orders_also_hold_in_2d(ladder_2d):
    # supplementary to criteria 4-6: the dynamic/variational/covariant
    # agreement also refines at second order on the 2-d ladder
    hs = [m["h"] for m in ladder_2d]
    var_order = cli.fit_order(hs, [m["variational_residual"] for m in ladder_2d])
    cov_order = cli.fit_order(hs, [m["covariant_residual"] for m in ladder_2d])
    assert var_order >= ORDER_MIN
    assert cov_order >= ORDER_MIN


def test_criterion_7_energy_conservation(g, spec):
    grid = Grid((32,), (1.0 / 32,))
    cfg = dynamics.SimConfig(
        grid, g, spec,
        dynamics.fourier_algebra_field(grid, g, 2, 0.5, 1),
        dynamics.fourier_connection(grid, g, 2, 0.3, 2),
        dt=1e-3, steps=1000,
    )
    traj = whole_trajectory(cfg)
    e0 = dynamics.energy(spec, 0.0, traj.states[0])
    drift = abs(dynamics.energy(spec, 1.0, traj.states[traj.steps]) - e0) / abs(e0)
    ok = drift <= ENERGY_TOL
    report(7, "energy conservation over unit time", ok,
           f"relative drift {drift:.3e} (tol {ENERGY_TOL:.1e})")
    assert ok


def test_criterion_8_lie_kernel_exactness(g):
    rng = np.random.default_rng(2024)
    jac = adinv = dual = roundtrip = 0.0
    for _ in range(100):
        x, y, z = rng.normal(size=(3, 3))
        jac = max(jac, float(np.max(np.abs(
            g.bracket_arr(x, g.bracket_arr(y, z))
            + g.bracket_arr(y, g.bracket_arr(z, x))
            + g.bracket_arr(z, g.bracket_arr(x, y))
        ))))
        adinv = max(adinv, abs(float(g.bracket_arr(x, y) @ z + y @ g.bracket_arr(x, z))))
        dual = max(dual, abs(float(g.ad_star_arr(x, z) @ y - z @ g.bracket_arr(x, y))))
        v = rng.normal(size=3)
        v *= rng.uniform(0.05, 0.95) * np.pi / np.linalg.norm(v)
        roundtrip = max(roundtrip, float(np.max(np.abs(g.log_arr(g.exp_arr(v)) - v))))
    worst = max(jac, adinv, dual, roundtrip)
    ok = worst <= LIE_TOL
    report(8, "algebra kernel exactness", ok,
           f"jacobi {jac:.1e}, ad-invariance {adinv:.1e}, duality {dual:.1e}, "
           f"exp/log {roundtrip:.1e} (tol {LIE_TOL:.1e})")
    assert ok


def test_criterion_9_reproducibility(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(REFERENCE_RUN))
    blobs = []
    for tag, threads in (("r1t1", "1"), ("r2t1", "1"), ("r1t4", "4"), ("r2t4", "4")):
        outdir = tmp_path / tag
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "latspin.cli", "simulate", str(path), str(outdir)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append((outdir / "series.csv").read_bytes())
    ok = all(b == blobs[0] for b in blobs)
    report(9, "bit reproducibility across runs and thread counts", ok,
           f"{len(blobs)} runs compared, byte-identical: {ok}")
    assert ok
