"""The deformed two-form in the left-invariant coframe.

The 2N x 2N coefficient matrix uses the basis ordering
(epsilon^1_L ... epsilon^N_L, dpi_1 ... dpi_N) and the block layout

    M = [[ C(pi),  I_N ],
         [ -I_N,   Upsilon ]],   C(pi) = pi_m f[m] + Theta.

Kernel vectors (x, y) satisfy y = -C x and (I + Upsilon C) x = 0, so the
nullity of M equals the nullity of I + Upsilon C(pi), and of K = I + C(pi) Upsilon.

Certificate: if ||C Upsilon||_F <= 0.9, then ||C Upsilon||_2 <= 0.9, so by Weyl's inequality
every singular value of K lies in [1 - 0.9, 1 + 0.9] = [0.1, 1.9] and K and M are nondegenerate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import LieAlgebra
from .cohomology import (ADMISSION_TOL_ABS, ADMISSION_TOL_REL, admission_tol, cocycle_residual,
                         delta1_scalar, solve_primitive)
from .errors import DegenerateForm, NotACocycle, NotAntisymmetric, UpsilonPresent

#: singular values below RANK_TOL * sigma_max count as zero
RANK_TOL = 1e-10


def _admit(algebra: LieAlgebra, Theta: np.ndarray, Upsilon: np.ndarray, tol: float = 1e-12):
    """Admit (G, N, N) stacks of Theta and Upsilon; the first failing point raises its own error."""
    n = algebra.dim
    for name, A in (("Theta", Theta), ("Upsilon", Upsilon)):
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise NotAntisymmetric(f"{name} must be square, got shape {A.shape[1:]}")
    if Theta.shape[1:] != (n, n) or Upsilon.shape[1:] != (n, n):
        raise NotAntisymmetric(f"deformation matrices must be {n} x {n}")
    pair = np.stack((Theta, Upsilon), axis=1)
    # not (x <= tol): a non-finite entry makes its residual inf or NaN, and NaN fails every `>`
    with np.errstate(invalid="ignore"):
        asymmetric = ~(np.max(np.abs(pair + pair.swapaxes(2, 3)), axis=(2, 3), initial=0.0) <= tol)
    first = np.argmax(np.append(asymmetric.any(axis=1), True))  # first asymmetric point, or G
    res = cocycle_residual(algebra, Theta[:first])
    # no admission tolerance lies below the smaller constant: only points above it can fail
    suspect = np.flatnonzero(~(res <= min(ADMISSION_TOL_ABS, ADMISSION_TOL_REL)))
    failing = (suspect[~(res[suspect] <= admission_tol(algebra, Theta[suspect]))]
               if suspect.size else suspect)
    if failing.size:
        g = failing[0]
        raise NotACocycle(f"Theta is not a two-cocycle: residual {res[g]:.3e} > "
                          f"{admission_tol(algebra, Theta[g]):.3e}")
    if first < len(Theta):
        k = np.argmax(asymmetric[first])
        name, A = ("Theta", "Upsilon")[k], pair[first, k]
        bad = np.argwhere(~np.isfinite(A))
        if bad.size:
            i, j = bad[0]
            raise NotAntisymmetric(f"{name} has a non-finite entry {A[i, j]} at ({i}, {j})")
        raise NotAntisymmetric(f"{name} fails antisymmetry at {tol:.1e}")


def _omega_blocks(C: np.ndarray, Upsilon: np.ndarray) -> np.ndarray:
    """M = [[C, I], [-I, Upsilon]] from (..., N, N) blocks."""
    n, eye = C.shape[-1], np.eye(C.shape[-1])
    M = np.empty(C.shape[:-2] + (2 * n, 2 * n))
    M[..., :n, :n], M[..., :n, n:], M[..., n:, :n], M[..., n:, n:] = C, eye, -eye, Upsilon
    return M


def _rank(s: np.ndarray, rank_tol: float):
    """Singular values above rank_tol * sigma_max (rank_tol when sigma_max = 0), per row of s."""
    smax = s[..., :1]
    return np.sum(s > np.where(smax > 0, rank_tol * smax, rank_tol), axis=-1)


@dataclass(frozen=True)
class DeformedStructure:
    """A Lie algebra together with admitted deformations Theta and Upsilon.

    Theta and Upsilon are read-only copies of the caller's arrays.  What depends
    only on the structure is computed once: ``upsilon_zero`` (Upsilon has no
    nonzero entry), ``f`` flattened to N x N*N, so that C(pi) is one matmul, and
    the N x N identity.
    """

    algebra: LieAlgebra
    Theta: np.ndarray = None
    Upsilon: np.ndarray = None
    upsilon_zero: bool = field(init=False)
    _f_flat: np.ndarray = field(init=False, repr=False)
    _eye: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.algebra.dim
        Theta = np.zeros((n, n)) if self.Theta is None else np.array(self.Theta, float)
        Upsilon = np.zeros((n, n)) if self.Upsilon is None else np.array(self.Upsilon, float)
        _admit(self.algebra, Theta[None], Upsilon[None])
        Theta.setflags(write=False)
        Upsilon.setflags(write=False)
        object.__setattr__(self, 'Theta', Theta)
        object.__setattr__(self, 'Upsilon', Upsilon)
        object.__setattr__(self, 'upsilon_zero', not Upsilon.any())
        object.__setattr__(self, '_f_flat', self.algebra.f.reshape(n, n * n))
        eye = np.eye(n)
        eye.setflags(write=False)
        object.__setattr__(self, '_eye', eye)


def lie_poisson_block(structure: DeformedStructure, pi) -> np.ndarray:
    """Top-left block C(pi) = pi_m f[m] + Theta."""
    n = structure.algebra.dim
    return (np.asarray(pi, float) @ structure._f_flat).reshape(n, n) + structure.Theta


def omega_matrix(structure: DeformedStructure, pi) -> np.ndarray:
    """Coefficient matrix of the deformed two-form at body momentum pi."""
    return _omega_blocks(lie_poisson_block(structure, pi), structure.Upsilon)


@dataclass(frozen=True)
class DegeneracyReport:
    rank: int
    nullity: int
    kernel: np.ndarray  # 2N x nullity, orthonormal columns


def degeneracy(structure: DeformedStructure, pi, rank_tol: float = RANK_TOL) -> DegeneracyReport:
    """Rank, nullity and kernel basis of the two-form matrix via SVD."""
    M = omega_matrix(structure, pi)
    _, s, vt = np.linalg.svd(M)
    rank = int(_rank(s, rank_tol))
    kernel = vt[rank:].T
    return DegeneracyReport(rank=rank, nullity=M.shape[0] - rank, kernel=kernel)


def poisson_tensor(structure: DeformedStructure, pi, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Inverse of the two-form matrix, antisymmetrized to machine precision."""
    report = degeneracy(structure, pi, rank_tol)
    if report.nullity > 0:
        raise DegenerateForm(
            f"two-form degenerate at this momentum (nullity {report.nullity})",
            kernel=report.kernel)
    Pi = np.linalg.inv(omega_matrix(structure, pi))
    return 0.5 * (Pi - Pi.T)


@dataclass(frozen=True)
class GridReport:
    rank: np.ndarray     # (G,)
    nullity: np.ndarray  # (G,)
    poisson: np.ndarray  # (points with nullity 0, 2N, 2N), in grid order


def decide_grid(algebra: LieAlgebra, Theta, Upsilon, pi,
                rank_tol: float = RANK_TOL) -> GridReport:
    """Admit (G, N, N) stacks of Theta and Upsilon and decide every point at momentum pi.

    Point by point the checks and results of DeformedStructure, degeneracy and
    poisson_tensor, from one stacked SVD and one stacked inverse.
    """
    Theta, Upsilon = np.asarray(Theta, float), np.asarray(Upsilon, float)
    _admit(algebra, Theta, Upsilon)
    C = np.einsum('m,mab->ab', np.asarray(pi, float), algebra.f) + Theta
    M = _omega_blocks(C, Upsilon)
    _, s, _ = np.linalg.svd(M)
    rank = _rank(s, rank_tol)
    Pi = np.linalg.inv(M[rank == M.shape[-1]])
    return GridReport(rank=rank, nullity=M.shape[-1] - rank,
                      poisson=0.5 * (Pi - Pi.transpose(0, 2, 1)))


def closedness_residual(structure: DeformedStructure) -> float:
    """Obstruction to closedness of the deformed form: the cocycle residual of Theta.

    Constant Upsilon contributes nothing, so the Maurer-Cartan identity
    reduces closedness to the two-cocycle condition on Theta.
    """
    return cocycle_residual(structure.algebra, structure.Theta)


def darboux_shift(structure: DeformedStructure, pi):
    """Absorb an exact Theta into a momentum shift: returns (pi - xi, xi).

    Requires Upsilon = 0.  After the shift the Lie-Poisson block satisfies
    C_Theta(pi) = C_0(pi - xi) entrywise.
    """
    if not structure.upsilon_zero:
        raise UpsilonPresent("Darboux shift applies only with Upsilon = 0")
    xi, _, _ = solve_primitive(structure.algebra, structure.Theta)
    return np.asarray(pi, float) - xi, xi


def load_deformation(path, algebra: LieAlgebra) -> DeformedStructure:
    """Load a deformation spec {"Theta":, "Upsilon":, "xi":} and admit it.

    A null Theta together with a non-null xi builds the coboundary of xi.
    """
    with open(path) as fh:
        data = json.load(fh)
    n = algebra.dim
    Theta = data.get("Theta")
    if Theta is None:
        xi = data.get("xi")
        Theta = delta1_scalar(algebra, xi) if xi is not None else np.zeros((n, n))
    Upsilon = data.get("Upsilon")
    if Upsilon is None:
        Upsilon = np.zeros((n, n))
    return DeformedStructure(algebra, np.asarray(Theta, float), np.asarray(Upsilon, float))
