"""Matrix Lie group kernel: bracket, adjoint/coadjoint actions, exp/log.

Conventions
-----------
An algebra element is stored as its coefficient vector in a fixed basis that is
orthonormal for the ad-invariant inner product

    kappa(X, Y) = w * tr(X^T Y),

with the weight ``w`` chosen per group (1/2 for so(3), which makes the hat-map
basis orthonormal, so kappa is the plain dot product of coefficient vectors).
Dual elements use the dual basis; the pairing is then the coefficient dot
product and flat/sharp are coefficient identities.

All kernels operate on stacked arrays (leading axes arbitrary), so the same
code path serves single elements and whole lattice fields.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MembershipError",
    "LogBranchError",
    "MatrixGroup",
    "so3",
    "group_by_name",
]

STRUCTURE_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-12
SO3_MEMBERSHIP_TOL = 1e-9
SO3_LOG_ANGLE_MARGIN = 1e-6


class MembershipError(ValueError):
    """Matrix fails the group membership test."""


class LogBranchError(ValueError):
    """Group element lies at or beyond the injectivity radius of exp."""


def _so3_basis() -> np.ndarray:
    e = np.zeros((3, 3, 3))
    e[0] = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
    e[1] = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]
    e[2] = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    return e


class MatrixGroup:
    """Descriptor for a matrix group G with a kappa-orthonormal algebra basis.

    The descriptor owns every array-level kernel; lattice fields delegate here
    so there is a single implementation per operation. With is_so3 the
    kernels are closed forms; otherwise they are the structure-tensor einsum,
    scaling-and-squaring exp, the real matrix logarithm, and a log round trip
    as the membership test.
    """

    def __init__(self, name, basis, kappa_weight, is_so3=False):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise ValueError("basis must be a stack of square matrices")
        self.name = name
        self.basis = basis
        self.algebra_dim = basis.shape[0]
        self.matrix_dim = basis.shape[1]
        self.kappa_weight = float(kappa_weight)
        self.is_so3 = bool(is_so3)
        self._check_orthonormal()
        self.structure = self._structure_tensor()
        self._check_ad_invariant()

    # -- descriptor validation -------------------------------------------------

    def _check_orthonormal(self):
        gram = self.kappa_weight * np.einsum(
            "aji,bji->ab", self.basis, self.basis
        )
        defect = np.max(np.abs(gram - np.eye(self.algebra_dim)))
        if defect > ORTHONORMALITY_TOL:
            raise ValueError(
                f"basis is not kappa-orthonormal (defect {defect:.3e})"
            )

    def _structure_tensor(self) -> np.ndarray:
        # C[a, b, c] with [e_a, e_b] = C[a, b, c] e_c, and closure check.
        comm = np.einsum("aij,bjk->abik", self.basis, self.basis)
        comm = comm - np.transpose(comm, (1, 0, 2, 3))
        c = self.to_coeffs(comm)
        rebuilt = np.einsum("abc,cij->abij", c, self.basis)
        defect = np.max(np.abs(comm - rebuilt))
        if defect > STRUCTURE_TOL:
            raise ValueError(
                f"algebra basis does not close under the bracket (defect {defect:.3e})"
            )
        return c

    def _check_ad_invariant(self):
        # kappa([e_a, e_b], e_c) = -kappa(e_b, [e_a, e_c]) is C_abc = -C_acb:
        # with the antisymmetry in (a, b), the tensor is totally antisymmetric.
        defect = np.max(np.abs(self.structure + np.swapaxes(self.structure, 1, 2)))
        if defect > STRUCTURE_TOL:
            raise ValueError(
                f"kappa is not ad-invariant on this basis (defect {defect:.3e})"
            )

    # -- coefficient/matrix conversion ----------------------------------------

    def hat(self, coeffs) -> np.ndarray:
        """Coefficient vectors (..., d) to algebra matrices (..., n, n)."""
        coeffs = np.asarray(coeffs, float)
        if self.is_so3:
            return _so3_hat(coeffs)
        return np.einsum("...a,aij->...ij", coeffs, self.basis)

    def to_coeffs(self, mats) -> np.ndarray:
        """kappa-orthogonal projection of matrices onto the algebra, in coefficients.

        For so(3) this is the antisymmetrization followed by the inverse hat map.
        """
        mats = np.asarray(mats, float)
        if self.is_so3:
            return _so3_vee(mats)
        return self.kappa_weight * np.einsum("...ij,aij->...a", mats, self.basis)

    # -- algebra kernels -------------------------------------------------------

    def bracket_arr(self, xi, eta) -> np.ndarray:
        if self.is_so3:
            return _so3_cross(xi, eta)
        return np.einsum("...a,...b,abc->...c", xi, eta, self.structure)

    def ad_star_arr(self, xi, mu) -> np.ndarray:
        # <ad*_xi mu, eta> = <mu, [xi, eta]> evaluated against every basis vector.
        if self.is_so3:
            return _so3_cross(mu, xi)
        return np.einsum("...a,...c,abc->...b", xi, mu, self.structure)

    def ad_arr(self, gmats, coeffs) -> np.ndarray:
        """Adjoint action g xi g^-1, re-expanded in the basis."""
        conj = gmats @ self.hat(coeffs) @ self.inverse_arr(gmats)
        return self.to_coeffs(conj)

    # -- group kernels ---------------------------------------------------------

    def inverse_arr(self, gmats) -> np.ndarray:
        if self.is_so3:
            return np.swapaxes(gmats, -1, -2)
        return np.linalg.inv(gmats)

    def membership_defect(self, mats) -> np.ndarray:
        """Frobenius defect from the group manifold (orthogonality for SO3)."""
        mats = np.asarray(mats, float)
        if self.is_so3:
            gram = np.swapaxes(mats, -1, -2) @ mats
            defect = np.linalg.norm(gram - np.eye(3), axis=(-2, -1))
            bad_det = np.linalg.det(mats) <= 0
            return np.where(bad_det, np.inf, defect)
        # Generic subgroups: accept matrices whose log round-trips.
        try:
            coeffs = self.log_arr(mats)
        except LogBranchError:
            return np.full(mats.shape[:-2], np.inf)
        back = self.exp_arr(coeffs)
        return np.linalg.norm(back - mats, axis=(-2, -1))

    def check_membership(self, mats, tol=SO3_MEMBERSHIP_TOL):
        defect = self.membership_defect(mats)
        worst = float(np.max(defect))
        if not np.isfinite(worst) or worst > tol:
            raise MembershipError(
                f"matrix is not in {self.name} (defect {worst:.3e} > {tol:.1e})"
            )

    def exp_arr(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, float)
        if self.is_so3:
            return _so3_exp(coeffs, self.hat(coeffs))
        import scipy.linalg  # only the generic fallbacks need scipy

        return scipy.linalg.expm(self.hat(coeffs))

    def log_arr(self, gmats) -> np.ndarray:
        gmats = np.asarray(gmats, float)
        if self.is_so3:
            return _so3_log(gmats)
        import scipy.linalg  # only the generic fallbacks need scipy

        out = np.empty(gmats.shape[:-2] + (self.algebra_dim,))
        flat = gmats.reshape((-1,) + gmats.shape[-2:])
        logs = np.empty_like(flat)
        for k in range(flat.shape[0]):
            lg = scipy.linalg.logm(flat[k])
            if np.max(np.abs(lg.imag)) > 1e-8:
                raise LogBranchError("matrix logarithm left the real branch")
            logs[k] = lg.real
        out[...] = self.to_coeffs(logs.reshape(gmats.shape))
        return out

    def identity(self) -> np.ndarray:
        return np.eye(self.matrix_dim)

    def __repr__(self):
        return f"MatrixGroup({self.name!r}, dim={self.matrix_dim}, algebra_dim={self.algebra_dim})"


# The identity of the Rodrigues sum, and the series of sin(t)/t and
# (1 - cos t)/t^2 in t2 = t^2, one row each, lead - t2 / c2 + t2 * t2 / c4, so
# that _so3_exp evaluates both in one pass.
_EYE3 = np.eye(3)
_SERIES_LEAD = np.array([[1.0], [0.5]])
_SERIES_T2 = np.array([[6.0], [24.0]])
_SERIES_T4 = np.array([[120.0], [720.0]])

# Closed forms of the so(3) kernels in the hat-map basis. Each is the
# structure-tensor einsum of the generic path written out: the same products
# and sums in the same rounding, so the results agree bit for bit. The einsum
# accumulates from +0.0 and so never returns -0.0; the trailing "+= 0.0" turns
# the -0.0 that a difference of signed zeros can give into +0.0 as well.
# Component slices, not np.cross: np.cross is slower than the einsum on the
# small (32, 3) arrays of a 1-D lattice.


def _so3_cross(x, y) -> np.ndarray:
    """x cross y: the bracket [x, y], and ad*_y x."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    c0 = x1 * y2
    c0 -= x2 * y1
    c1 = x2 * y0
    c1 -= x0 * y2
    c2 = x0 * y1
    c2 -= x1 * y0
    out = np.concatenate((c0[..., None], c1[..., None], c2[..., None]), axis=-1)
    out += 0.0
    return out


def _so3_hat(c) -> np.ndarray:
    """Skew matrix of c, filled component by component.

    The entries are c + 0.0 and 0.0 - c, so that none is -0.0, as in the
    structure-tensor einsum.
    """
    pos, neg = c + 0.0, 0.0 - c
    k = np.zeros(c.shape[:-1] + (3, 3))
    k[..., 2, 1], k[..., 0, 2], k[..., 1, 0] = pos[..., 0], pos[..., 1], pos[..., 2]
    k[..., 1, 2], k[..., 2, 0], k[..., 0, 1] = neg[..., 0], neg[..., 1], neg[..., 2]
    return k


def _so3_vee(m) -> np.ndarray:
    """Coefficients of the skew part (m - m^T) / 2."""
    out = np.stack([m[..., 2, 1] - m[..., 1, 2], m[..., 0, 2] - m[..., 2, 0],
                    m[..., 1, 0] - m[..., 0, 1]], axis=-1)
    out *= 0.5
    out += 0.0
    return out


def _so3_exp(coeffs, k) -> np.ndarray:
    """Rodrigues formula I + a k + b k^2; k is the hat matrix of coeffs.

    a = sin(t)/t and b = (1-cos t)/t^2 are the quotients. Only where some
    angle t is below 1e-4 are they formed under errstate (a zero angle gives
    0/0) and overwritten by their series at those entries, both series in
    one pass; otherwise no quotient is 0/0, and they are the whole of a and
    b. The sum is built as
    a k + I + b (k @ k), the same sums as eye + a k + b (k @ k), in two
    (..., 3, 3) buffers: k @ k, and k itself, which is overwritten and
    returned.
    """
    theta2 = np.einsum("...a,...a->...", coeffs, coeffs)
    theta = np.sqrt(theta2)
    small = theta < 1e-4
    if small.any():
        # np.asarray: for one element these are numpy scalars, which the
        # masked writes below cannot index
        with np.errstate(invalid="ignore", divide="ignore"):
            a = np.asarray(np.sin(theta) / theta)
            b = np.asarray((1.0 - np.cos(theta)) / theta2)
        t2 = theta2[small]
        a[small], b[small] = _SERIES_LEAD - t2 / _SERIES_T2 + t2 * t2 / _SERIES_T4
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta2
    kk = k @ k
    kk *= b[..., None, None]
    k *= a[..., None, None]
    k += _EYE3
    k += kk
    return k


def _so3_log(gmats) -> np.ndarray:
    tr = np.trace(gmats, axis1=-2, axis2=-1)
    cos_theta = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if np.max(theta) >= np.pi - SO3_LOG_ANGLE_MARGIN:
        raise LogBranchError(
            f"rotation angle {np.max(theta):.8f} is within "
            f"{SO3_LOG_ANGLE_MARGIN:.1e} of the cut locus at pi"
        )
    vee = _so3_vee(gmats)
    small = theta < 1e-4
    theta2 = theta * theta
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.where(
            small,
            1.0 + theta2 / 6.0 + 7.0 * theta2 * theta2 / 360.0,
            theta / np.where(small, 1.0, np.sin(theta)),
        )
    return factor[..., None] * vee


_SO3 = None


def so3() -> MatrixGroup:
    """The shared SO(3) descriptor (hat-map basis, kappa = dot product)."""
    global _SO3
    if _SO3 is None:
        _SO3 = MatrixGroup("SO3", _so3_basis(), kappa_weight=0.5, is_so3=True)
    return _SO3


def group_by_name(name: str) -> MatrixGroup:
    if name == "SO3":
        return so3()
    raise ValueError(f"unknown group name {name!r}")

