import json

import numpy as np
import pytest

from latspin.dynamics import (
    fourier_algebra_field,
    fourier_connection,
    group_field_from_profile,
)
from latspin.lattice import (
    AlgebraField,
    ConnectionForm,
    DualField,
    DualVectorField,
    Grid,
    GridMismatchError,
    GroupField,
    NonFiniteError,
    cdiff_array,
    d_alg,
    div_dual,
    integrate,
    l2_pair,
    max_row_norm,
    right_log_derivative,
    snapshot,
)

SBP_TOL = 1e-13
QUAD_TOL = 1e-13


# -- grid -----------------------------------------------------------------------


def test_grid_volume_and_sites():
    grid = Grid((8, 6), (0.5, 0.25))
    assert grid.sizes == (8, 6)
    assert grid.cell_volume == pytest.approx(0.125)
    assert grid.lengths == (4.0, 1.5)


@pytest.mark.parametrize("sizes,spacing", [
    ((3,), (1.0,)),           # too few sites
    ((8,), (0.0,)),           # degenerate spacing
    ((8, 8, 8), (1.0,) * 3),  # unsupported dimension
    ((8, 8), (1.0,)),         # spacing arity
    ((8,), (np.nan,)),        # non-finite spacing
    ((8, 8), (1.0, np.inf)),  # non-finite spacing
])
def test_grid_validation(sizes, spacing):
    with pytest.raises(ValueError):
        Grid(sizes, spacing)


def test_field_shape_and_finiteness(g, grid32):
    with pytest.raises(ValueError):
        AlgebraField(grid32, g, np.zeros((32, 2)))
    bad = np.zeros((32, 3))
    bad[5, 1] = np.inf
    with pytest.raises(ValueError):
        AlgebraField(grid32, g, bad)


@pytest.mark.parametrize("cls,lead", [
    (AlgebraField, ()), (DualField, ()), (ConnectionForm, (1,)), (DualVectorField, (1,)),
])
def test_coefficient_containers_share_one_body(g, grid32, cls, lead):
    shape = lead + (32, 3)
    zero = cls.zeros(grid32, g)
    assert getattr(zero, "comps" if lead else "values").shape == shape
    assert zero.max_norm() == 0.0
    assert "__post_init__" in vars(cls)  # a construction hook of its own
    with pytest.raises(ValueError, match="must have shape"):
        cls(grid32, g, np.zeros(lead + (32, 2)))
    bad = np.ones(shape)
    assert cls(grid32, g, bad).max_norm() == np.sqrt(3.0)
    bad[(0,) * len(lead) + (5, 1)] = np.nan
    with pytest.raises(NonFiniteError):
        cls(grid32, g, bad)


def test_group_field_checks_shape_only(g, grid32):
    with pytest.raises(ValueError, match="must have shape"):
        GroupField(grid32, g, np.zeros((32, 3)))
    # membership, and with it finiteness, is checked where outside data enters
    assert np.isnan(GroupField(grid32, g, np.full((32, 3, 3), np.nan)).values).all()


# -- central differences -----------------------------------------------------------


def test_central_diff_annihilates_constants():
    const = np.tile([1.0, -2.0, 0.5], (32, 1))
    assert np.max(np.abs(cdiff_array(const, 0, 1.0 / 32))) == 0.0


def test_central_diff_fourier_symbol(g, grid32):
    # the centered stencil maps sin(w x) to (sin(w h)/h) cos(w x), exactly
    h = grid32.spacing[0]
    x = grid32.coordinates()[0]
    for k in (1, 3, 7):
        w = 2 * np.pi * k / grid32.lengths[0]
        vals = np.zeros((32, 3))
        vals[:, 0] = np.sin(w * x)
        out = cdiff_array(vals, 0, h)
        want = np.sin(w * h) / h * np.cos(w * x)
        assert np.max(np.abs(out[:, 0] - want)) <= 1e-12 * max(1.0, abs(np.sin(w * h) / h))


@pytest.mark.parametrize("shape,axes", [
    ((4, 3), (0,)), ((32, 3), (0,)), ((64, 64, 3), (0, 1)),
    ((16, 12, 3), (0, 1)), ((64, 64, 3, 3), (0, 1)),
])
# "C-out-slice": a C-layout input whose difference is also written into one
# axis slice of a larger (dim, sites..., d) array, as d_alg fills it
@pytest.mark.parametrize("layout", ["C", "F", "C-out-slice"])
def test_cdiff_array_matches_roll_formula_bit_for_bit(shape, axes, layout):
    rand = np.random.default_rng(5).normal(size=shape)
    rand[rand > 1.2] = 0.0
    rand[rand < -1.2] = -0.0
    for axis in axes:
        # -0.0 - +0.0 is -0.0: site 1 of the axis must come out as -0.0
        vals = np.moveaxis(rand.copy(), axis, 0)
        vals[0], vals[2] = 0.0, -0.0
        vals = np.asarray(np.moveaxis(vals, 0, axis), order=layout[0])
        h = 1.0 / shape[axis]
        want = (np.roll(vals, -1, axis=axis) - np.roll(vals, 1, axis=axis)) / (2.0 * h)
        got = cdiff_array(vals, axis, h)
        if layout == "C-out-slice":
            block = np.full((len(axes),) + shape, np.nan)
            assert np.shares_memory(cdiff_array(vals, axis, h, out=block[axis]), block)
            assert np.array_equal(block[axis], got)
            assert np.array_equal(np.signbit(block[axis]), np.signbit(got))
            got = block[axis]
            # the flat stencil cannot write through a strided view
            with pytest.raises(ValueError):
                cdiff_array(vals, axis, h, out=np.empty(shape[::-1]).T)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.any((want == 0.0) & np.signbit(want))


def _norm_rows(shape, fill=None):
    arr = np.random.default_rng(9).normal(size=shape)
    if fill is not None:
        arr.reshape(-1, shape[-1])[::2] = fill
    return arr


@pytest.mark.parametrize("arr", [
    pytest.param(np.zeros((0, 3)), id="empty-rows"),
    pytest.param(np.zeros((3, 0)), id="empty-last-axis"),
    pytest.param(np.zeros((2, 0, 3)), id="empty-middle-axis"),
    pytest.param(np.zeros((0,)), id="empty-1d"),
    pytest.param(_norm_rows((32, 3)), id="chain"),
    pytest.param(_norm_rows((2, 64, 64, 3)), id="connection-64x64"),
    pytest.param(_norm_rows((32, 3), 0.0), id="zero-rows"),
    pytest.param(_norm_rows((32, 3), -0.0), id="negative-zero-rows"),
    pytest.param(_norm_rows((32, 3), 2e150), id="rows-near-1e150"),
    # the squares overflow to inf
    pytest.param(_norm_rows((32, 3), 3e154), id="squares-overflow"),
    pytest.param(_norm_rows((16, 3)) * 1e155, id="all-squares-overflow"),
    pytest.param(_norm_rows((32, 3), np.nan), id="nan-rows"),
    pytest.param(_norm_rows((32, 3), np.inf), id="inf-rows"),
    pytest.param(np.array([[np.nan, 1e155, 0.0]]), id="nan-and-overflow"),
])
def test_max_row_norm_matches_linalg_norm_bit_for_bit(arr):
    with np.errstate(over="ignore", invalid="ignore"):
        got = max_row_norm(arr)
        want = float(np.max(np.linalg.norm(arr, axis=-1), initial=0.0))
    assert type(got) is float
    assert np.array_equal(got, want, equal_nan=True)
    assert np.signbit(got) == np.signbit(want)


def test_central_diff_summation_by_parts(g, grid32):
    f = fourier_algebra_field(grid32, g, 3, 1.0, 1)
    w = DualField(grid32, g, fourier_algebra_field(grid32, g, 3, 1.0, 2).values)
    h = grid32.spacing[0]
    lhs = l2_pair(DualField(grid32, g, cdiff_array(w.values, 0, h)), f)
    rhs = l2_pair(w, AlgebraField(grid32, g, cdiff_array(f.values, 0, h)))
    assert abs(lhs + rhs) <= SBP_TOL * max(abs(lhs), abs(rhs), 1.0)


# -- d_alg / div_dual ---------------------------------------------------------------


def test_d_alg_constant_vanishes(g, grid2d16):
    const = np.tile([0.2, 0.4, -1.0], (16, 16, 1))
    assert np.max(np.abs(d_alg(const, grid2d16.spacing))) == 0.0


def test_d_alg_linear(g, grid32):
    a = fourier_algebra_field(grid32, g, 2, 0.7, 3).values
    b = fourier_algebra_field(grid32, g, 2, 0.5, 4).values
    h = grid32.spacing
    assert np.allclose(d_alg(a + b, h), d_alg(a, h) + d_alg(b, h), atol=1e-14)


def test_div_dual_constant_vanishes(g, grid2d16):
    w = np.tile([1.0, 0.0, 2.0], (2, 16, 16, 1))
    assert np.max(np.abs(div_dual(w, grid2d16.spacing))) == 0.0


def test_div_of_curl_pattern_is_zero(g, grid2d16):
    # w = (D_y psi, -D_x psi): discrete mixed derivatives commute exactly
    psi = fourier_algebra_field(grid2d16, g, 3, 1.0, 5)
    dpsi = d_alg(psi.values, grid2d16.spacing)
    w = np.stack([dpsi[1], -dpsi[0]])
    assert np.max(np.abs(div_dual(w, grid2d16.spacing))) <= 1e-12


def test_adjointness_d_alg_div_dual(g):
    for grid in (Grid((32,), (1 / 32,)), Grid((16, 16), (1 / 16, 1 / 16))):
        for k in range(50):
            zeta = fourier_algebra_field(grid, g, 3, 0.9, 100 + k)
            w = DualVectorField(
                grid, g, fourier_connection(grid, g, 3, 0.8, 200 + k).comps
            )
            a = l2_pair(DualField(grid, g, div_dual(w.comps, grid.spacing)), zeta)
            b = l2_pair(w, ConnectionForm(grid, g, d_alg(zeta.values, grid.spacing)))
            assert abs(a + b) <= SBP_TOL * max(abs(a), abs(b), 1.0)


# -- quadrature ----------------------------------------------------------------------


def test_integrate_volume(g, grid2d16):
    assert integrate(grid2d16, np.ones(grid2d16.sizes)) == pytest.approx(1.0, abs=1e-15)


def test_integrate_fourier_mode_is_zero(g, grid32):
    x = grid32.coordinates()[0]
    assert abs(integrate(grid32, np.sin(2 * np.pi * x))) <= QUAD_TOL


def test_integrate_linear(g, grid32):
    rr = np.random.default_rng(6)
    f, h = rr.normal(size=(2, 32))
    assert integrate(grid32, f + h) == pytest.approx(
        integrate(grid32, f) + integrate(grid32, h), abs=1e-14
    )


def test_l2_pair_positivity_and_orthogonality(g, grid32):
    nu = fourier_algebra_field(grid32, g, 2, 0.8, 7)
    flat = DualField(grid32, g, nu.values.copy())
    assert l2_pair(flat, nu) >= 0.0
    zero = AlgebraField.zeros(grid32, g)
    assert l2_pair(flat, zero) == 0.0
    e1 = DualField(grid32, g, np.tile([1.0, 0, 0], (32, 1)))
    e2 = AlgebraField(grid32, g, np.tile([0.0, 1, 0], (32, 1)))
    assert abs(l2_pair(e1, e2)) <= QUAD_TOL


def test_l2_pair_shape_mismatch(g, grid32, grid2d16):
    a = DualField.zeros(grid32, g)
    b = AlgebraField.zeros(grid2d16, g)
    with pytest.raises(GridMismatchError):
        l2_pair(a, b)


# -- right logarithmic derivative -------------------------------------------------------


def test_rld_constant_field_vanishes(g, grid32):
    chi = GroupField.identity(grid32, g)
    assert np.max(np.abs(right_log_derivative(chi).comps)) == 0.0


def test_rld_right_translation_invariance(g, grid32):
    chi = group_field_from_profile(grid32, g, 2, 0.6, 8)
    const = g.exp_arr(np.array([0.4, -1.0, 0.3]))
    translated = GroupField(grid32, g, chi.values @ const)
    gap = np.max(np.abs(right_log_derivative(translated).comps
                        - right_log_derivative(chi).comps))
    assert gap <= 1e-12


def test_rld_richardson_second_order(g):
    # chi = exp(xi f(x)) along a fixed axis has continuum derivative f'(x) xi
    errs = []
    for n in (16, 32, 64):
        grid = Grid((n,), (1.0 / n,))
        x = grid.coordinates()[0]
        prof = 0.8 * np.sin(2 * np.pi * x)
        coeffs = np.zeros((n, 3))
        coeffs[:, 1] = prof
        chi = GroupField(grid, g, g.exp_arr(coeffs))
        out = right_log_derivative(chi).comps[0]
        exact = 0.8 * 2 * np.pi * np.cos(2 * np.pi * x)
        errs.append(np.max(np.abs(out[:, 1] - exact)))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.7


# -- snapshots ----------------------------------------------------------------------


def test_snapshot_roundtrip_all_kinds(g, grid2d16):
    # snapshots are write-only: decode the JSON here and compare it with the field
    fields = {
        "algebra": fourier_algebra_field(grid2d16, g, 2, 0.5, 9),
        "dual": DualField(grid2d16, g, fourier_algebra_field(grid2d16, g, 2, 0.5, 10).values),
        "connection": fourier_connection(grid2d16, g, 2, 0.5, 12),
        "dual_vector": DualVectorField(
            grid2d16, g, fourier_connection(grid2d16, g, 2, 0.5, 13).comps),
    }
    for kind, f in fields.items():
        snap = json.loads(json.dumps(snapshot(f), default=np.ndarray.tolist))
        header = {"dim": 2, "sizes": [16, 16], "spacing": [1 / 16, 1 / 16], "group": "SO3",
                  "kind": kind}
        assert {key: snap[key] for key in header} == header
        orig = f.comps if hasattr(f, "comps") else f.values
        assert np.array_equal(np.reshape(snap["data"], orig.shape), orig)
    with pytest.raises(TypeError, match="GroupField"):
        snapshot(group_field_from_profile(grid2d16, g, 2, 0.5, 11))
