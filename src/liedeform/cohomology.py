"""Scalar Chevalley-Eilenberg cochain calculus in degrees one and two.

Coboundary conventions (all contractions against f[mu][alpha][beta]):

    (delta1 xi)_{ab}      = -xi_m f[m][a][b]
    (delta1 theta)_{a,mn} = -theta_{k,n} f[k][m][a] + theta_{k,m} f[k][n][a]
                            - theta_{a,k} f[k][m][n]
    (delta2 Theta)_{abc}  = -Theta_{kc} f[k][a][b] + Theta_{kb} f[k][a][c]
                            - Theta_{ka} f[k][b][c]

with theta_{a,m} the pairing of theta(e_m) against e_a.  For antisymmetric
theta the degree-one and degree-two residual tensors agree up to the index
permutation (a, m, n) -> (n, m, a); both vanish on the same cocycle set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra, _pair_index, _require_finite, _transpose_residual
from .errors import NotACocycle, NotAntisymmetric, NotExact

#: absolute cocycle-admission tolerance for integer-valued structure constants
ADMISSION_TOL_ABS = 1e-12
#: relative admission tolerance otherwise
ADMISSION_TOL_REL = 1e-9
#: relative exactness threshold in solve_primitive
EXACTNESS_TOL = 1e-9


def admission_tol(algebra: LieAlgebra, Theta):
    """Cocycle admission tolerance, absolute on integer-valued data, else relative; one per point."""
    Theta = np.asarray(Theta, float)
    integral = ((np.max(np.abs(algebra.f - np.round(algebra.f)), initial=0.0) == 0.0)
                & (np.max(np.abs(Theta - np.round(Theta)), axis=(-2, -1), initial=0.0) == 0.0))
    # the constant first: max|Theta| * max|f| alone can overflow where the bound does not
    rel = (ADMISSION_TOL_REL * np.maximum(np.max(np.abs(Theta), axis=(-2, -1), initial=0.0), 1.0)
           * max(np.max(np.abs(algebra.f), initial=0.0), 1.0))
    return np.where(integral, ADMISSION_TOL_ABS, rel)[()]


def delta1_scalar(algebra: LieAlgebra, xi) -> np.ndarray:
    """Coboundary of a dual-space element, Theta_{ab} = -xi_m f[m][a][b]; per point of a stack."""
    return -np.einsum('...m,mab->...ab', np.asarray(xi, float), algebra.f)


def delta1_vector(algebra: LieAlgebra, theta) -> np.ndarray:
    """Coboundary residual of a dual-valued 1-cochain, indexed [a][m][n].

    Antisymmetric in the last two slots; identically zero exactly on cocycles.
    """
    theta = np.asarray(theta, float)
    return (-np.einsum('kn,kma->amn', theta, algebra.f)
            + np.einsum('km,kna->amn', theta, algebra.f)
            - np.einsum('ak,kmn->amn', theta, algebra.f))


def delta2(algebra: LieAlgebra, Theta) -> np.ndarray:
    """Degree-two coboundary of an antisymmetric scalar 2-cochain, indexed [...][a][b][c].

    Antisymmetry is judged point by point, relative to the scale of each point's Theta; the
    first point that fails raises ``_reject_asymmetric``'s error, as in ``_admit``.
    """
    Theta = np.asarray(Theta, float)
    _reject_asymmetric("Theta", Theta)
    return _delta2(algebra, Theta)


def _reject_asymmetric(name: str, A: np.ndarray):
    """Raise NotAntisymmetric at the first matrix of the (..., N, N) stack A that fails
    antisymmetry: naming its first non-finite entry if it has one, else its residual and bound."""
    residual, bound = _transpose_residual(A)
    if not (residual <= bound).all():  # NaN fails the comparison
        g = np.unravel_index(np.argmin(residual <= bound), np.shape(residual))
        _require_finite(name, A[g], NotAntisymmetric)
        raise NotAntisymmetric(f"{name} fails antisymmetry: residual {residual[g]:.3e} > "
                               f"{bound[g]:.3e}")


def _delta2(algebra: LieAlgebra, Theta: np.ndarray) -> np.ndarray:
    """delta2 of a float Theta (stack) whose antisymmetry the caller has already checked."""
    return (-np.einsum('...kc,kab->...abc', Theta, algebra.f)
            + np.einsum('...kb,kac->...abc', Theta, algebra.f)
            - np.einsum('...ka,kbc->...abc', Theta, algebra.f))


def cocycle_residual(algebra: LieAlgebra, Theta):
    """Max-entry norm of delta2(Theta): a float, or one per point of a stack."""
    return np.max(np.abs(delta2(algebra, Theta)), axis=(-3, -2, -1))


def _admit(algebra: LieAlgebra, Theta: np.ndarray, Upsilon: np.ndarray):
    """Admit (..., N, N) stacks of Theta and Upsilon that broadcast, checking each matrix once.

    The one admission rule: DeformedStructure, decide_grid and solve_primitive (the last
    with Upsilon = 0) all apply it.  The first failing point of the broadcast stack, in
    row-major order, raises its own error: Theta's antisymmetry, then Upsilon's, then the
    cocycle condition.  Returns each Theta's cocycle_residual.
    """
    n = algebra.dim
    for name, A in (("Theta", Theta), ("Upsilon", Upsilon)):
        if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
            raise NotAntisymmetric(f"{name} must be square, got shape {A.shape[-2:]}")
    if Theta.shape[-2:] != (n, n) or Upsilon.shape[-2:] != (n, n):
        raise NotAntisymmetric(f"deformation matrices must be {n} x {n}")
    stacks = [A.reshape(-1, n, n) for A in (Theta, Upsilon)]
    residual, bound = _transpose_residual(np.concatenate(stacks))  # cheaper than one per stack
    asymmetric, k = ~(residual <= bound), len(stacks[0])
    with np.errstate(over="ignore", invalid="ignore"):  # near the float64 limit: NaN, rejected
        res = np.max(np.abs(_delta2(algebra, Theta)), axis=(-3, -2, -1))
        # no admission tolerance lies below the smaller constant: every point at or under it passes
        tol = min(ADMISSION_TOL_ABS, ADMISSION_TOL_REL)
        if not (res <= tol).all():
            tol = admission_tol(algebra, Theta)
        failing = (asymmetric[:k].reshape(Theta.shape[:-2]) | ~(res <= tol)
                   | asymmetric[k:].reshape(Upsilon.shape[:-2]))
        if failing.any():  # the first failing point, in the order of the checks
            g = np.unravel_index(failing.argmax(), failing.shape)
            for name, A in (("Theta", Theta), ("Upsilon", Upsilon)):
                _reject_asymmetric(name, np.broadcast_to(A, failing.shape + (n, n))[g])
            r, t = (np.broadcast_to(x, failing.shape)[g] for x in (res, tol))
            raise NotACocycle(f"Theta is not a two-cocycle: residual {r:.3e} > {t:.3e}")
    return res


def solve_primitive(algebra: LieAlgebra, Theta):
    """Minimal-norm xi with delta1_scalar(xi) = Theta, for a cocycle Theta.

    Returns (xi, residual, kernel_dim) where residual is the max-entry norm of
    Theta - delta1(xi) and kernel_dim the dimension of the coboundary map's
    kernel (nonzero only off the semisimple branch).  Raises ``_admit``'s
    NotAntisymmetric or NotACocycle if Theta is not admitted, and NotExact if no
    primitive exists within the relative tolerance.
    """
    Theta = np.asarray(Theta, float)
    if Theta.ndim > 2:  # one matrix, where _admit would take a stack
        raise NotAntisymmetric(f"deformation matrices must be {algebra.dim} x {algebra.dim}")
    _admit(algebra, Theta, np.zeros_like(Theta))
    return _primitive(algebra, Theta)


def _primitive(algebra: LieAlgebra, Theta: np.ndarray):
    """solve_primitive, by np.linalg.lstsq, of a float Theta already admitted as a cocycle."""
    a, b = _pair_index(algebra.dim)
    xi, _, rank, _ = np.linalg.lstsq(algebra._coboundary, Theta[a, b], rcond=None)
    residual = float(np.abs(Theta - delta1_scalar(algebra, xi)).max(initial=0.0))
    scale = float(np.abs(Theta).max(initial=0.0))
    if residual > EXACTNESS_TOL * scale:
        raise NotExact(
            f"no primitive: residual {residual:.3e} vs scale {scale:.3e}",
            xi=xi, residual=residual)
    return xi, residual, algebra.dim - rank


@dataclass(frozen=True)
class CohomologyDims:
    z2: int
    b2: int
    h2: int
    h1: int


def cohomology_dimensions(algebra: LieAlgebra) -> CohomologyDims:
    """Ranks of the degree-one and degree-two coboundary maps, computed once per algebra.

    H2 = Z2 - B2 on the antisymmetric pair basis; H1 = N - dim of the
    derived algebra (rank of the flattened bracket map).
    """
    return algebra._cohomology_dims


def _cohomology_dimensions(algebra: LieAlgebra) -> CohomologyDims:
    n = algebra.dim
    a, b = _pair_index(n)
    m = len(a)
    # delta2 on the ordered-pair basis of antisymmetric 2-cochains, one unit cochain per row
    E = np.zeros((m, n, n))
    E[np.arange(m), a, b], E[np.arange(m), b, a] = 1.0, -1.0
    z2 = m - (int(np.linalg.matrix_rank(_delta2(algebra, E).reshape(m, -1))) if m else 0)
    b2 = int(np.linalg.matrix_rank(algebra._coboundary)) if m else 0
    derived = int(np.linalg.matrix_rank(algebra._f_flat))
    return CohomologyDims(z2=z2, b2=b2, h2=z2 - b2, h1=n - derived)
