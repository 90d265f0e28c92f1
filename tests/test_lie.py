import warnings

import numpy as np
import pytest

from latspin.lie import LogBranchError, MatrixGroup

from reference_group import ReferenceGroup, reference_so3

EXACT = 1e-12
KAPPA_WEIGHT = 0.5  # kappa(X, Y) = tr(X^T Y) / 2 makes the hat-map basis orthonormal
N_SAMPLES = 100


def vec(*coeffs):
    return np.array(coeffs, float)


def rodrigues(axis, angle):
    # independent oracle: explicit Rodrigues rotation matrix
    k = np.asarray(axis, float)
    k = k / np.linalg.norm(k)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(angle) * kx + (1 - np.cos(angle)) * (kx @ kx)


# -- bracket -------------------------------------------------------------------


def test_bracket_basis_gives_structure_constants(g):
    assert np.allclose(g.bracket_arr(vec(1, 0, 0), vec(0, 1, 0)), [0, 0, 1], atol=EXACT)


def test_bracket_antisymmetry(g):
    xi = vec(0.3, -1.2, 0.7)
    assert np.max(np.abs(g.bracket_arr(xi, xi))) <= EXACT


def test_bracket_hand_computed_cross_product(g):
    # frozen by hand: (1,2,3) x (0,1,0) = (-3, 0, 1)
    out = g.bracket_arr(vec(1, 2, 3), vec(0, 1, 0))
    assert np.allclose(out, [-3, 0, 1], atol=EXACT)


def test_bracket_matches_matrix_commutator(g):
    rr = np.random.default_rng(7)
    for _ in range(20):
        x, y = rr.normal(size=(2, 3))
        comm = g.hat(x) @ g.hat(y) - g.hat(y) @ g.hat(x)
        assert np.allclose(g.hat(g.bracket_arr(x, y)), comm, atol=EXACT)


def test_jacobi_identity(g):
    rr = np.random.default_rng(1)
    worst = 0.0
    for _ in range(N_SAMPLES):
        x, y, z = rr.normal(size=(3, 3))
        total = (
            g.bracket_arr(x, g.bracket_arr(y, z))
            + g.bracket_arr(y, g.bracket_arr(z, x))
            + g.bracket_arr(z, g.bracket_arr(x, y))
        )
        worst = max(worst, float(np.max(np.abs(total))))
    assert worst <= EXACT


def test_metric_ad_invariance(g):
    rr = np.random.default_rng(2)
    worst = 0.0
    for _ in range(N_SAMPLES):
        x, y, z = rr.normal(size=(3, 3))
        worst = max(worst, abs(float(g.bracket_arr(x, y) @ z + y @ g.bracket_arr(x, z))))
    assert worst <= EXACT


# -- ad_star -------------------------------------------------------------------


def test_ad_star_basis_example(g):
    # derived by pairing against every basis vector
    out = g.ad_star_arr(vec(1, 0, 0), vec(0, 1, 0))
    assert np.allclose(out, [0, 0, -1], atol=EXACT)


def test_ad_star_duality(g):
    rr = np.random.default_rng(3)
    worst = 0.0
    for _ in range(N_SAMPLES):
        xi, mu, eta = rr.normal(size=(3, 3))
        lhs = g.ad_star_arr(xi, mu) @ eta
        rhs = mu @ g.bracket_arr(xi, eta)
        worst = max(worst, abs(float(lhs - rhs)))
    assert worst <= EXACT


def test_ad_star_on_own_flat_vanishes(g):
    # the flat of xi has the coefficients of xi in the orthonormal basis
    xi = vec(0.4, -0.8, 1.3)
    assert np.max(np.abs(g.ad_star_arr(xi, xi))) <= 1e-13


def test_ad_star_linear_in_zero(g):
    out = g.ad_star_arr(vec(0, 0, 0), vec(1.0, -2.0, 0.5))
    assert np.max(np.abs(out)) <= EXACT


def test_ad_star_closed_form_oracle(g):
    # for so(3) with the dot-product metric, ad*_xi mu = mu x xi
    rr = np.random.default_rng(4)
    for _ in range(20):
        xi, mu = rr.normal(size=(2, 3))
        assert np.allclose(g.ad_star_arr(xi, mu), np.cross(mu, xi), atol=EXACT)


# -- Ad -----------------------------------------------------------------------


def test_ad_identity(g):
    xi = vec(0.2, 0.5, -0.1)
    assert np.allclose(g.ad_arr(np.eye(3), xi), xi, atol=EXACT)


def test_ad_quarter_turn_rotates_basis(g):
    quarter = g.exp_arr(vec(0, 0, np.pi / 2))
    assert np.allclose(quarter, rodrigues([0, 0, 1], np.pi / 2), atol=EXACT)
    assert np.allclose(g.ad_arr(quarter, vec(1, 0, 0)), [0, 1, 0], atol=1e-12)


def test_ad_preserves_metric(g):
    rr = np.random.default_rng(5)
    for _ in range(20):
        gmat = g.exp_arr(rr.normal(size=3))
        xi, eta = rr.normal(size=(2, 3))
        lhs = g.ad_arr(gmat, xi) @ g.ad_arr(gmat, eta)
        assert abs(lhs - xi @ eta) <= 1e-12


def test_ad_is_bracket_homomorphism(g):
    rr = np.random.default_rng(6)
    gmat = g.exp_arr(rr.normal(size=3))
    xi, eta = rr.normal(size=(2, 3))
    lhs = g.ad_arr(gmat, g.bracket_arr(xi, eta))
    rhs = g.bracket_arr(g.ad_arr(gmat, xi), g.ad_arr(gmat, eta))
    assert np.allclose(lhs, rhs, atol=1e-12)


# -- exp / log -----------------------------------------------------------------


def test_exp_zero_is_identity(g):
    assert np.array_equal(g.exp_arr(vec(0, 0, 0)), np.eye(3))


def test_exp_quarter_turn_frozen(g):
    want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(g.exp_arr(vec(0, 0, np.pi / 2)), want, atol=EXACT)


def test_exp_inverse(g):
    xi = vec(0.7, -0.3, 1.1)
    prod = g.exp_arr(xi) @ g.exp_arr(-xi)
    assert np.max(np.abs(prod - np.eye(3))) <= EXACT


def test_exp_matches_rodrigues(g):
    rr = np.random.default_rng(8)
    for _ in range(20):
        v = rr.normal(size=3)
        angle = np.linalg.norm(v)
        assert np.allclose(g.exp_arr(v), rodrigues(v, angle), atol=1e-12)


def rodrigues_where(coeffs, k):
    # the Rodrigues formula as an expression: both branches of the sinc
    # factors under np.where, then eye + a k + b k^2
    theta2 = np.einsum("...a,...a->...", coeffs, coeffs)
    theta = np.sqrt(theta2)
    small = theta < 1e-4
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0,
                     np.sin(theta) / np.where(small, 1.0, theta))
        b = np.where(small, 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0,
                     (1.0 - np.cos(theta)) / np.where(small, 1.0, theta2))
    eye = np.broadcast_to(np.eye(3), k.shape)
    return eye + a[..., None, None] * k + b[..., None, None] * (k @ k)


def log_where(g, gmats):
    # the log as an expression: both branches of theta / sin(theta) under
    # np.where, times the axis
    tr = np.trace(gmats, axis1=-2, axis2=-1)
    theta = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
    small = theta < 1e-4
    theta2 = theta * theta
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.where(small, 1.0 + theta2 / 6.0 + 7.0 * theta2 * theta2 / 360.0,
                          theta / np.where(small, 1.0, np.sin(theta)))
    return factor[..., None] * g.to_coeffs(gmats)


def _exp_coeffs(shape, kind):
    if kind in ("zero", "negative-zero"):
        return np.full(shape, 0.0 if kind == "zero" else -0.0)
    x = np.random.default_rng(17).normal(size=shape)
    rows = x.reshape(-1, 3)
    if kind == "small":
        rows *= 1e-5
    elif kind == "mixed":
        rows[::3] *= 1e-5
    if kind != "large" and rows.shape[0] > 1:
        rows[1::4], rows[2::4] = 0.0, -0.0
    return x


def _assert_angle_mix(angles, shape, kind):
    if kind == "large":  # no entry takes the series
        assert np.all(angles >= 1e-4)
    elif kind == "mixed" and shape != (3,):
        assert np.any(angles < 1e-4) and np.any(angles >= 1e-4)
    else:
        assert np.any(angles < 1e-4)


def _warning_free(kernel, arg):
    # the kernels set no error state: any floating-point warning fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return kernel(arg)


@pytest.mark.parametrize("shape", [(3,), (32, 3), (2, 64, 64, 3)])
@pytest.mark.parametrize("kind", ["small", "large", "mixed", "zero", "negative-zero"])
def test_so3_exp_matches_the_rodrigues_expression_bit_for_bit(g, shape, kind):
    x = _exp_coeffs(shape, kind)
    _assert_angle_mix(np.linalg.norm(x, axis=-1), shape, kind)
    got, want = _warning_free(g.exp_arr, x), rodrigues_where(x, g.hat(x))
    assert got.shape == want.shape == shape[:-1] + (3, 3)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("shape", [(3,), (32, 3), (2, 64, 64, 3)])
@pytest.mark.parametrize("kind", ["small", "large", "mixed", "zero", "negative-zero"])
def test_so3_log_matches_the_series_expression_bit_for_bit(g, shape, kind):
    gmats = g.exp_arr(_exp_coeffs(shape, kind))
    got, want = _warning_free(g.log_arr, gmats), log_where(g, gmats)
    _assert_angle_mix(np.linalg.norm(want, axis=-1), shape, kind)
    assert got.shape == want.shape == shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_log_identity_is_zero(g):
    assert np.max(np.abs(g.log_arr(np.eye(3)))) <= EXACT


def test_exp_log_roundtrip(g):
    rr = np.random.default_rng(9)
    worst = 0.0
    for _ in range(N_SAMPLES):
        v = rr.normal(size=3)
        v *= rr.uniform(0.01, 0.95) * np.pi / np.linalg.norm(v)
        back = g.log_arr(g.exp_arr(v))
        worst = max(worst, float(np.max(np.abs(back - v))))
    assert worst <= EXACT


def test_log_exp_roundtrip_matrix(g):
    rr = np.random.default_rng(10)
    for _ in range(20):
        v = rr.normal(size=3)
        v *= rr.uniform(0.01, 0.95) * np.pi / np.linalg.norm(v)
        mat = g.exp_arr(v)
        assert np.max(np.abs(g.exp_arr(g.log_arr(mat)) - mat)) <= 1e-10


def test_log_branch_error_at_pi(g):
    half_turn = g.exp_arr(vec(np.pi, 0, 0))
    with pytest.raises(LogBranchError):
        g.log_arr(half_turn)


# -- metric duality --------------------------------------------------------------


def test_metric_dual_pairs_as_inner_product(g):
    # flat and sharp are coefficient identities in the kappa-orthonormal
    # basis, so the pairing of flat(x) with y is kappa(hat x, hat y) = x . y
    rr = np.random.default_rng(11)
    for _ in range(20):
        xi, eta = rr.normal(size=(2, 3))
        kappa = KAPPA_WEIGHT * np.trace(g.hat(xi).T @ g.hat(eta))
        assert abs(kappa - xi @ eta) <= EXACT


# -- descriptor handling -----------------------------------------------------------


def test_nonclosed_basis_rejected():
    bad = np.zeros((2, 3, 3))
    bad[0, 0, 1] = 1.0
    bad[0, 1, 0] = -1.0
    bad[1] = np.diag([1.0, -1.0, 0.0]) / np.sqrt(2)
    with pytest.raises(ValueError):
        ReferenceGroup("bad", bad, 0.5)


def test_non_ad_invariant_basis_rejected():
    # aff(1): closed and kappa-orthonormal, but [X, Y] = Y gives C_XYY = 1,
    # so kappa([X, Y], Y) = 1 while -kappa(Y, [X, Y]) = -1
    aff = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(ValueError, match="ad-invariant"):
        ReferenceGroup("aff1", aff, 1.0)


def test_generic_descriptor_agrees_with_fast_path(g):
    clone = reference_so3()
    rr = np.random.default_rng(12)
    for _ in range(10):
        v = rr.normal(size=3) * 0.8
        assert np.allclose(clone.exp_arr(v), g.exp_arr(v), atol=1e-12)
        assert np.allclose(clone.log_arr(clone.exp_arr(v)), v, atol=1e-10)
        w = rr.normal(size=3)
        assert np.allclose(clone.bracket_arr(v, w), g.bracket_arr(v, w), atol=EXACT)


def test_structure_constants_are_levi_civita(g):
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c] = 1.0
        eps[b, a, c] = -1.0
    # C[a, b] = [e_a, e_b], read off the bracket of unit vectors
    units = np.eye(3)
    c = np.array([[g.bracket_arr(ea, eb) for eb in units] for ea in units])
    assert np.allclose(c, eps, atol=EXACT)


def _seeded_coeffs(rr, shape, offset=0):
    # rows of +0.0 and of -0.0 from row `offset` on: the signed zeros of a
    # difference of zero products are where a closed form can drift from the
    # einsum
    x = rr.normal(size=shape)
    rows = x.reshape(-1, shape[-1])
    rows[offset::3] = 0.0
    rows[offset + 1::5] = -0.0
    return x


def assert_same_bits(a, b):
    # array_equal plus the sign of every zero
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("xshape,yshape", [
    ((3,), (3,)),
    ((32, 3), (32, 3)),
    ((64, 64, 3), (64, 64, 3)),
    ((2, 64, 64, 3), (1, 64, 64, 3)),  # the broadcast of cov_diff
])
def test_so3_closed_forms_match_generic_path_bit_for_bit(g, xshape, yshape):
    clone = reference_so3()
    rr = np.random.default_rng(31)
    x, y = _seeded_coeffs(rr, xshape, 1), _seeded_coeffs(rr, yshape, 2)
    assert_same_bits(g.bracket_arr(x, y), clone.bracket_arr(x, y))
    assert_same_bits(g.ad_star_arr(x, y), clone.ad_star_arr(x, y))
    assert_same_bits(g.hat(x), clone.hat(x))
    mats = _seeded_coeffs(rr, xshape[:-1] + (9,)).reshape(xshape[:-1] + (3, 3))
    mats[..., 1, 2] = -0.0  # against the +0.0 of the rows zeroed above
    assert_same_bits(g.to_coeffs(mats), clone.to_coeffs(mats))
    assert_same_bits(g.to_coeffs(g.hat(x)), clone.to_coeffs(clone.hat(x)))


@pytest.mark.parametrize("layout", ["transposed", "sliced"])
def test_exp_arr_gives_the_same_bits_in_any_memory_layout(g, layout):
    # einsum sums theta^2 over a contiguous last axis as (p0 + p2) + p1 and
    # over a strided one as (p0 + p1) + p2; exp_arr must not see the difference
    rr = np.random.default_rng(29)
    if layout == "transposed":
        strided = rr.normal(size=(3, 4096)).T
    else:
        strided = rr.normal(size=(4096, 6))[:, ::2]
    strided[::7] = -0.0
    assert not strided.flags.c_contiguous
    assert_same_bits(g.exp_arr(strided), g.exp_arr(np.ascontiguousarray(strided)))


def test_matrix_group_describes_so3_only():
    with pytest.raises(ValueError, match="SO3 only"):
        MatrixGroup("SU2")
