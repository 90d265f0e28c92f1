"""SO(3) kernel: bracket, adjoint/coadjoint actions, exp/log, as closed forms.

Conventions
-----------
An algebra element is stored as its coefficient vector in the hat-map basis,
which is orthonormal for the ad-invariant inner product

    kappa(X, Y) = tr(X^T Y) / 2,

so kappa is the plain dot product of coefficient vectors. Dual elements use
the dual basis; the pairing is then the coefficient dot product and
flat/sharp are coefficient identities.

All kernels operate on stacked arrays (leading axes arbitrary), so the same
code path serves single elements and whole lattice fields.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LogBranchError",
    "MatrixGroup",
    "so3",
]

SO3_LOG_ANGLE_MARGIN = 1e-6


class LogBranchError(ValueError):
    """Group element lies at or beyond the injectivity radius of exp."""


# The identity of the Rodrigues sum, and the series of sin(t)/t and
# (1 - cos t)/t^2 in t2 = t^2, one row each, lead - t2 / c2, so that exp_arr
# evaluates both in one pass. Below t = 1e-4 the t^4 terms (t^4/120, t^4/720)
# are under half an ulp of that sum, so adding them gives the same double.
_EYE3 = np.eye(3)
_SERIES_LEAD = np.array([[1.0], [0.5]])
_SERIES_T2 = np.array([[6.0], [24.0]])


class MatrixGroup:
    """The SO(3) descriptor: the one implementation of every array-level kernel.

    Lattice fields delegate here. Each kernel is the closed form of the
    structure-tensor einsum of a generic matrix group in the hat-map basis:
    the same products and sums in the same rounding, so the results agree bit
    for bit (tests/reference_group.py keeps that generic path and pins it).
    The einsum accumulates from +0.0 and so never returns -0.0; the trailing
    "+= 0.0" turns the -0.0 that a difference of signed zeros can give into
    +0.0 as well.
    """

    algebra_dim = matrix_dim = 3

    def __init__(self, name):
        if name != "SO3":
            raise ValueError(f"MatrixGroup describes SO3 only, not {name!r}")
        self.name = name

    # -- coefficient/matrix conversion ----------------------------------------

    def hat(self, coeffs) -> np.ndarray:
        """Coefficient vectors (..., 3) to skew matrices (..., 3, 3).

        The entries are c + 0.0 and 0.0 - c, so that none is -0.0.
        """
        coeffs = np.asarray(coeffs, float)
        pos, neg = coeffs + 0.0, 0.0 - coeffs
        k = np.zeros(coeffs.shape[:-1] + (3, 3))
        k[..., 2, 1], k[..., 0, 2], k[..., 1, 0] = pos[..., 0], pos[..., 1], pos[..., 2]
        k[..., 1, 2], k[..., 2, 0], k[..., 0, 1] = neg[..., 0], neg[..., 1], neg[..., 2]
        return k

    def to_coeffs(self, mats) -> np.ndarray:
        """kappa-orthogonal projection of matrices onto the algebra, in coefficients:
        the antisymmetrization followed by the inverse hat map."""
        return _so3_vee(np.asarray(mats, float))

    # -- algebra kernels -------------------------------------------------------

    def bracket_arr(self, xi, eta) -> np.ndarray:
        return _so3_cross(xi, eta)

    def ad_star_arr(self, xi, mu) -> np.ndarray:
        # <ad*_xi mu, eta> = <mu, [xi, eta]> = (mu x xi) . eta
        return _so3_cross(mu, xi)

    def ad_arr(self, gmats, coeffs) -> np.ndarray:
        """Adjoint action g xi g^-1, re-expanded in the basis."""
        conj = gmats @ self.hat(coeffs) @ self.inverse_arr(gmats)
        return self.to_coeffs(conj)

    # -- group kernels ---------------------------------------------------------

    def inverse_arr(self, gmats) -> np.ndarray:
        return np.swapaxes(gmats, -1, -2)

    def exp_arr(self, coeffs) -> np.ndarray:
        """Rodrigues formula I + a k + b k^2, k the hat matrix of coeffs.

        a = sin(t)/t and b = (1-cos t)/t^2 are divided only where the angle t
        is at least 1e-4, so no 0/0 is formed, and take their series, both in
        one pass, where it is below; the out buffers are arrays, so the masked
        writes serve one element too. The sum is built as a k + I + b (k @ k),
        the same sums as eye + a k + b (k @ k), in two (..., 3, 3) buffers:
        k @ k, and k itself, which is overwritten and returned. The einsum sums
        theta^2 as (p0 + p2) + p1 over a contiguous last axis, (p0 + p1) + p2
        over a strided one: coeffs is read C-contiguous, so any layout gives
        one result.
        """
        coeffs = np.ascontiguousarray(coeffs, dtype=float)
        k = self.hat(coeffs)
        theta2 = np.einsum("...a,...a->...", coeffs, coeffs)
        theta = np.sqrt(theta2)
        small = theta < 1e-4
        a = np.divide(np.sin(theta), theta, out=np.empty(theta.shape), where=~small)
        b = np.divide(1.0 - np.cos(theta), theta2, out=np.empty(theta.shape), where=~small)
        t2 = theta2[small]
        a[small], b[small] = _SERIES_LEAD - t2 / _SERIES_T2
        kk = k @ k
        kk *= b[..., None, None]
        k *= a[..., None, None]
        k += _EYE3
        k += kk
        return k

    def log_arr(self, gmats) -> np.ndarray:
        """theta/sin(theta) times the axis vee(g): divided where theta >= 1e-4,
        the series 1 + t^2/6 below, as in exp_arr (its next term, 7 t^4/360,
        is under half an ulp of that sum there)."""
        gmats = np.asarray(gmats, float)
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
        factor = np.divide(theta, np.sin(theta), out=np.empty(theta.shape), where=~small)
        t2 = np.square(theta[small])
        factor[small] = 1.0 + t2 / 6.0
        return factor[..., None] * vee

    def identity(self) -> np.ndarray:
        return np.eye(self.matrix_dim)

    def __repr__(self):
        return f"MatrixGroup({self.name!r})"


# Each serves two kernels as a module function, not through the other
# kernel's method, so that a per-kernel call count counts each kernel once.
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


def _so3_vee(m) -> np.ndarray:
    """Coefficients of the skew part (m - m^T) / 2: to_coeffs, and the axis in log."""
    out = np.stack([m[..., 2, 1] - m[..., 1, 2], m[..., 0, 2] - m[..., 2, 0],
                    m[..., 1, 0] - m[..., 0, 1]], axis=-1)
    out *= 0.5
    out += 0.0
    return out


_SO3 = MatrixGroup("SO3")


def so3() -> MatrixGroup:
    """The shared SO(3) descriptor."""
    return _SO3
