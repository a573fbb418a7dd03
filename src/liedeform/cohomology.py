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

# np.linalg.lstsq's LAPACK gufunc (gelsd), without the wrapper that takes half of _primitive's
# time.  Called as the wrapper calls it, so with its bytes: float64 loop, rcond eps * max(m, n),
# its error state and handler, and xi zeroed at m = 0 pairs, where the gufunc leaves it unset.
_lstsq = np.linalg._umath_linalg.lstsq


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
    residual, bound = _transpose_residual(Theta)
    failing = ~(residual <= bound)
    if failing.any():
        g = np.unravel_index(failing.argmax(), failing.shape)
        _reject_asymmetric("Theta", Theta[g], residual[g], bound[g])
    return _delta2(algebra, Theta)


def _reject_asymmetric(name: str, A: np.ndarray, residual, bound):
    """Raise NotAntisymmetric for a matrix A that failed antisymmetry by ``residual > bound``:
    naming its first non-finite entry if it has one, else the residual and the bound."""
    _require_finite(name, A, NotAntisymmetric)
    raise NotAntisymmetric(f"{name} fails antisymmetry: residual {residual:.3e} > {bound:.3e}")


def _delta2(algebra: LieAlgebra, Theta: np.ndarray) -> np.ndarray:
    """delta2 of a float Theta (stack) whose antisymmetry the caller has already checked."""
    return (-np.einsum('...kc,kab->...abc', Theta, algebra.f)
            + np.einsum('...kb,kac->...abc', Theta, algebra.f)
            - np.einsum('...ka,kbc->...abc', Theta, algebra.f))


def cocycle_residual(algebra: LieAlgebra, Theta):
    """Max-entry norm of delta2(Theta): a float, or one per point of a stack."""
    return np.max(np.abs(delta2(algebra, Theta)), axis=(-3, -2, -1))


def _admit(algebra: LieAlgebra, Theta: np.ndarray, Upsilon: np.ndarray):
    """Admit (G, N, N) stacks of Theta and Upsilon; the first failing point raises its own error.

    The one admission rule: DeformedStructure, decide_grid and solve_primitive (the last
    with Upsilon = 0) all apply it.  Returns each point's cocycle_residual.
    """
    n = algebra.dim
    for name, A in (("Theta", Theta), ("Upsilon", Upsilon)):
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise NotAntisymmetric(f"{name} must be square, got shape {A.shape[1:]}")
    if Theta.shape[1:] != (n, n) or Upsilon.shape[1:] != (n, n):
        raise NotAntisymmetric(f"deformation matrices must be {n} x {n}")
    pair = np.array((Theta, Upsilon)).swapaxes(0, 1)  # (G, 2, N, N), as np.stack but faster
    residual, bound = _transpose_residual(pair)
    asymmetric = ~(residual <= bound)
    first = np.concatenate((asymmetric.any(axis=1), [True])).argmax()  # first asymmetric, or G
    with np.errstate(over="ignore", invalid="ignore"):  # near the float64 limit: NaN, rejected
        res = np.max(np.abs(_delta2(algebra, Theta[:first])), axis=(-3, -2, -1))
        # no admission tolerance lies below the smaller constant: only points above it can fail
        suspect = np.flatnonzero(~(res <= min(ADMISSION_TOL_ABS, ADMISSION_TOL_REL)))
        tol = admission_tol(algebra, Theta[suspect]) if suspect.size else None
    if suspect.size and not np.all(res[suspect] <= tol):
        g = np.argmax(~(res[suspect] <= tol))
        raise NotACocycle(f"Theta is not a two-cocycle: residual {res[suspect[g]]:.3e} > "
                          f"{tol[g]:.3e}")
    if first < len(Theta):
        k = np.argmax(asymmetric[first])
        _reject_asymmetric(("Theta", "Upsilon")[k], pair[first, k], residual[first, k],
                           bound[first, k])
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
    _admit(algebra, Theta[None], np.zeros_like(Theta)[None])
    return _primitive(algebra, Theta)


def _primitive(algebra: LieAlgebra, Theta: np.ndarray):
    """solve_primitive of a float Theta already admitted as a cocycle, as DeformedStructure's is."""
    a, b = _pair_index(algebra.dim)
    A = algebra._coboundary
    with np.errstate(call=np.linalg._linalg._raise_linalgerror_lstsq, all="ignore", invalid="call"):
        xi, _, rank, _ = _lstsq(A, Theta[a, b, None], np.finfo(float).eps * max(A.shape))
    xi = xi[:, 0] if len(A) else np.zeros(algebra.dim)  # m = 0 pairs: what the wrapper returns
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
