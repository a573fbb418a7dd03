"""Residual right-symmetry: Lie derivatives of the deformations and isotropy.

Transformation rules: Theta is covariant (conjugation by Ad(a) on both
slots), Upsilon and the inertia tensor are contravariant (conjugation by
Ad(a^{-1})).  The isotropy subalgebra is the joint kernel of the stacked
infinitesimal actions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra, _require_finite
from .errors import InvalidValue

#: singular values below this (relative) cut count as zero in null-space extraction
NULLSPACE_TOL = 1e-10


def _cocycle_derivative(ad: np.ndarray, Theta) -> np.ndarray:
    """(L_u Theta)_{mn} = Theta(ad_u e_m, e_n) + Theta(e_m, ad_u e_n); one per ad_u of a stack."""
    Theta = np.asarray(Theta, float)
    return ad.swapaxes(-1, -2) @ Theta + Theta @ ad


def _momentum_form_derivative(ad: np.ndarray, Upsilon) -> np.ndarray:
    """Contravariant -(ad_u Upsilon + Upsilon ad_u^T), also of inertia; one per ad_u of a stack."""
    Upsilon = np.asarray(Upsilon, float)
    return -(ad @ Upsilon + Upsilon @ ad.swapaxes(-1, -2))


@dataclass(frozen=True)
class IsotropySubalgebra:
    basis: np.ndarray  # k x N, orthonormal rows
    dimension: int
    closure_residual: float


def isotropy_subalgebra(algebra: LieAlgebra, Theta, Upsilon,
                        inertia_inv=None) -> IsotropySubalgebra:
    """Null space of u -> (L_u Theta, L_u Upsilon[, L_u I]) with closure check."""
    n = algebra.dim
    ad = algebra._ad_basis  # ad at u = I: column i of the map is its value at e_i
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        parts = [_cocycle_derivative(ad, Theta), _momentum_form_derivative(ad, Upsilon)]
        if inertia_inv is not None:
            parts.append(_momentum_form_derivative(ad, inertia_inv))
    A = np.concatenate([part.reshape(n, -1) for part in parts], axis=1).T
    _require_finite("the Lie-derivative matrix", A)  # where a Lie derivative overflowed
    try:
        _, s, vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # LAPACK's SVD of a finite A did not converge
        raise InvalidValue(f"the Lie derivatives of the deformation: {exc}") from None
    smax = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > NULLSPACE_TOL * smax))
    basis = vt[rank:]
    # bracket closure: project [b_i, b_j] outside the span
    residual = 0.0
    proj = basis.T @ basis
    for i in range(basis.shape[0]):
        for j in range(i + 1, basis.shape[0]):
            w = algebra.bracket(basis[i], basis[j])
            residual = max(residual, float(np.linalg.norm(w - proj @ w)))
    return IsotropySubalgebra(basis=basis, dimension=basis.shape[0],
                              closure_residual=residual)
