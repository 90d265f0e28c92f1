"""Generic matrix-group descriptor: the reference the SO(3) closed forms are pinned to.

`ReferenceGroup(name, basis, kappa_weight)` takes any stack of square
matrices that is orthonormal for kappa(X, Y) = w tr(X^T Y), closes under the
bracket and makes kappa ad-invariant, and computes every kernel from the
basis: the structure-tensor einsum, scipy's scaling-and-squaring `expm` and
the real matrix logarithm. It is a drop-in `MatrixGroup` for the lattice
containers and `simulate`, so tests can run one computation through both and
compare the bits.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from latspin.lie import LogBranchError, MatrixGroup

STRUCTURE_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-12


def so3_basis() -> np.ndarray:
    """The hat-map basis of so(3), kappa-orthonormal for weight 1/2."""
    e = np.zeros((3, 3, 3))
    e[0] = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
    e[1] = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]
    e[2] = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    return e


def reference_so3() -> ReferenceGroup:
    return ReferenceGroup("so3-generic", so3_basis(), 0.5)


class ReferenceGroup(MatrixGroup):
    """Every kernel from the basis; ad_arr and identity are MatrixGroup's,
    which build on these."""

    def __init__(self, name, basis, kappa_weight):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise ValueError("basis must be a stack of square matrices")
        self.name = name
        self.basis = basis
        self.algebra_dim = basis.shape[0]
        self.matrix_dim = basis.shape[1]
        self.kappa_weight = float(kappa_weight)
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

    # -- kernels -----------------------------------------------------------------

    def hat(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, float)
        return np.einsum("...a,aij->...ij", coeffs, self.basis)

    def to_coeffs(self, mats) -> np.ndarray:
        mats = np.asarray(mats, float)
        return self.kappa_weight * np.einsum("...ij,aij->...a", mats, self.basis)

    def bracket_arr(self, xi, eta) -> np.ndarray:
        return np.einsum("...a,...b,abc->...c", xi, eta, self.structure)

    def ad_star_arr(self, xi, mu) -> np.ndarray:
        # <ad*_xi mu, eta> = <mu, [xi, eta]> evaluated against every basis vector.
        return np.einsum("...a,...c,abc->...b", xi, mu, self.structure)

    def inverse_arr(self, gmats) -> np.ndarray:
        return np.linalg.inv(gmats)

    def exp_arr(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, float)
        return scipy.linalg.expm(self.hat(coeffs))

    def log_arr(self, gmats) -> np.ndarray:
        gmats = np.asarray(gmats, float)
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
