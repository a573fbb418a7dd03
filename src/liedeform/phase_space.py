"""The deformed two-form in the left-invariant coframe.

The 2N x 2N coefficient matrix uses the basis ordering
(epsilon^1_L ... epsilon^N_L, dpi_1 ... dpi_N) and the block layout

    M = [[ C(pi),  I_N ],
         [ -I_N,   Upsilon ]],   C(pi) = pi_m f[m] + Theta.

Kernel vectors (x, y) satisfy y = -C x and (I + Upsilon C) x = 0, so the
nullity of M equals the nullity of I + Upsilon C(pi), and of K = I + C(pi) Upsilon.

Nondegeneracy has one rule, ``_nullity``, which ``omega``, ``sweep`` and the vector
field behind ``simulate`` all apply: count the singular values of K at or below
rank_tol * max(sigma_max(K), 1).  Near K = I the cut is absolute, so the canonical
form (K = I) is nondegenerate at any momentum.  M is antisymmetric, so its nullity
is even: a count split by the cut is rounded up to even.  The SVD of M itself only
extracts a kernel basis at points already decided degenerate.

Certificate: if ||C Upsilon||_F <= 0.9, then ||C Upsilon||_2 <= 0.9, so by Weyl's inequality
every singular value of K lies in [1 - 0.9, 1 + 0.9] = [0.1, 1.9] and K and M are nondegenerate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import LieAlgebra, _require_finite, _transpose_residual
from .cohomology import (ADMISSION_TOL_ABS, ADMISSION_TOL_REL, _delta2, _primitive,
                         admission_tol, delta1_scalar)
from .errors import DegenerateForm, NotACocycle, NotAntisymmetric, UpsilonPresent

#: singular values of K at or below RANK_TOL * max(sigma_max(K), 1) count as zero
RANK_TOL = 1e-10


def _admit(algebra: LieAlgebra, Theta: np.ndarray, Upsilon: np.ndarray):
    """Admit (G, N, N) stacks of Theta and Upsilon; the first failing point raises its own error."""
    n = algebra.dim
    for name, A in (("Theta", Theta), ("Upsilon", Upsilon)):
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise NotAntisymmetric(f"{name} must be square, got shape {A.shape[1:]}")
    if Theta.shape[1:] != (n, n) or Upsilon.shape[1:] != (n, n):
        raise NotAntisymmetric(f"deformation matrices must be {n} x {n}")
    pair = np.stack((Theta, Upsilon), axis=1)
    residual, bound = _transpose_residual(pair)
    asymmetric = ~(residual <= bound)
    first = np.argmax(np.append(asymmetric.any(axis=1), True))  # first asymmetric point, or G
    res = np.max(np.abs(_delta2(algebra, Theta[:first])), axis=(-3, -2, -1))
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
        name = ("Theta", "Upsilon")[k]
        _require_finite(name, pair[first, k], NotAntisymmetric)
        raise NotAntisymmetric(f"{name} fails antisymmetry: residual "
                               f"{residual[first, k]:.3e} > {bound[first, k]:.3e}")


def _omega_blocks(C: np.ndarray, Upsilon: np.ndarray) -> np.ndarray:
    """M = [[C, I], [-I, Upsilon]] from (..., N, N) blocks."""
    n, eye = C.shape[-1], np.eye(C.shape[-1])
    M = np.empty(C.shape[:-2] + (2 * n, 2 * n))
    M[..., :n, :n], M[..., :n, n:], M[..., n:, :n], M[..., n:, n:] = C, eye, -eye, Upsilon
    return M


def _poisson(M: np.ndarray) -> np.ndarray:
    """Inverse of (..., 2N, 2N) stacks of M, antisymmetrized; ValueError where it is not finite."""
    Pi = np.linalg.inv(M)
    if not np.isfinite(Pi).all():  # before the subtraction, where inf - inf would warn
        raise ValueError("the inverse of the two-form matrix is not finite")
    return 0.5 * (Pi - Pi.swapaxes(-1, -2))


def _nullity(K: np.ndarray, rank_tol: float = RANK_TOL):
    """Nullity of M from (..., N, N) stacks of K = I + C Upsilon, by the rule stated above."""
    s = np.linalg.svd(K, compute_uv=False)
    zero = (s <= np.maximum(s[..., :1], 1.0) * rank_tol).sum(-1)
    return zero + zero % 2


@dataclass(frozen=True)
class DeformedStructure:
    """A Lie algebra together with admitted deformations Theta and Upsilon.

    Theta and Upsilon are read-only copies of the caller's arrays.  Theta is admitted
    as a two-cocycle here, once: its primitive is ``cohomology._primitive``.  Computed
    once too: ``upsilon_zero`` (Upsilon has no nonzero entry) and the N x N identity.
    """

    algebra: LieAlgebra
    Theta: np.ndarray = None
    Upsilon: np.ndarray = None
    upsilon_zero: bool = field(init=False)
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
        eye = np.eye(n)
        eye.setflags(write=False)
        object.__setattr__(self, '_eye', eye)


def lie_poisson_block(structure: DeformedStructure, pi) -> np.ndarray:
    """Top-left block C(pi) = pi_m f[m] + Theta."""
    n = structure.algebra.dim
    return np.asarray(pi, float).dot(structure.algebra._f_flat).reshape(n, n) + structure.Theta


def omega_matrix(structure: DeformedStructure, pi) -> np.ndarray:
    """Coefficient matrix of the deformed two-form at body momentum pi."""
    return _omega_blocks(lie_poisson_block(structure, pi), structure.Upsilon)


@dataclass(frozen=True)
class DegeneracyReport:
    rank: int
    nullity: int
    kernel: np.ndarray          # 2N x nullity, orthonormal columns
    poisson: np.ndarray | None  # the 2N x 2N Poisson tensor where nullity is 0, else None


def degeneracy(structure: DeformedStructure, pi, rank_tol: float = RANK_TOL) -> DegeneracyReport:
    """Rank and nullity of the two-form matrix M by ``_nullity``, decided once.

    Where M is degenerate the report carries a kernel basis from the SVD of M; where it
    is not, the Poisson tensor ``_poisson(M)``.  Raises ValueError where pi has a
    non-finite entry, or where M is nondegenerate but its inverse is not finite.
    """
    pi = np.asarray(pi, float)
    _require_finite("pi", pi)
    C = lie_poisson_block(structure, pi)
    n = structure.algebra.dim
    nullity = int(_nullity(structure._eye + C @ structure.Upsilon, rank_tol))
    M = _omega_blocks(C, structure.Upsilon)
    if nullity:
        kernel, poisson = np.linalg.svd(M)[2][2 * n - nullity:].T, None
    else:
        kernel, poisson = np.empty((2 * n, 0)), _poisson(M)
    return DegeneracyReport(rank=2 * n - nullity, nullity=nullity, kernel=kernel, poisson=poisson)


def poisson_tensor(structure: DeformedStructure, pi, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Antisymmetrized inverse of the two-form matrix (``_poisson``) where it is nondegenerate."""
    report = degeneracy(structure, pi, rank_tol)
    if report.nullity > 0:
        raise DegenerateForm(
            f"two-form degenerate at this momentum (nullity {report.nullity})",
            kernel=report.kernel)
    return report.poisson


@dataclass(frozen=True)
class GridReport:
    rank: np.ndarray     # (G,)
    nullity: np.ndarray  # (G,)
    poisson: np.ndarray  # (points with nullity 0, 2N, 2N), in grid order


def decide_grid(algebra: LieAlgebra, Theta, Upsilon, pi,
                rank_tol: float = RANK_TOL) -> GridReport:
    """Admit (G, N, N) stacks of Theta and Upsilon and decide every point at momentum pi.

    Point by point the checks and bitwise results of DeformedStructure, degeneracy and
    poisson_tensor: C(pi) as lie_poisson_block forms it, one stacked ``_nullity`` and ``_poisson``.
    """
    pi = np.asarray(pi, float)
    _require_finite("pi", pi)
    Theta, Upsilon = np.asarray(Theta, float), np.asarray(Upsilon, float)
    _admit(algebra, Theta, Upsilon)
    n = algebra.dim
    C = pi.dot(algebra._f_flat).reshape(n, n) + Theta
    nullity = _nullity(np.eye(n) + C @ Upsilon, rank_tol)
    return GridReport(rank=2 * n - nullity, nullity=nullity,
                      poisson=_poisson(_omega_blocks(C, Upsilon)[nullity == 0]))


def darboux_shift(structure: DeformedStructure, pi):
    """Absorb an exact Theta into a momentum shift: returns (pi - xi, xi).

    Requires Upsilon = 0.  After the shift the Lie-Poisson block satisfies
    C_Theta(pi) = C_0(pi - xi) entrywise.
    """
    if not structure.upsilon_zero:
        raise UpsilonPresent("Darboux shift applies only with Upsilon = 0")
    xi, _, _ = _primitive(structure.algebra, structure.Theta)
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
