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
Two readers skip the SVD where it holds: the vector field, at RANK_TOL, and ``decide_grid``
wherever 1.9 rank_tol < 0.1, so that the cut lies below every singular value of K.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .algebra import LieAlgebra, _load_object, _read_only, _require_finite
from .cohomology import _admit, _primitive, delta1_scalar
from .errors import DegenerateForm, InvalidValue, NotAntisymmetric, NotExact, ShapeMismatch

#: singular values of K at or below RANK_TOL * max(sigma_max(K), 1) count as zero
RANK_TOL = 1e-10


def _omega_blocks(C: np.ndarray, Upsilon: np.ndarray) -> np.ndarray:
    """M = [[C, I], [-I, Upsilon]] from (..., N, N) blocks, stacked to their broadcast shape."""
    n, eye = C.shape[-1], np.eye(C.shape[-1])
    M = np.empty(np.broadcast_shapes(C.shape, Upsilon.shape)[:-2] + (2 * n, 2 * n))
    M[..., :n, :n], M[..., :n, n:], M[..., n:, :n], M[..., n:, n:] = C, eye, -eye, Upsilon
    return M


def _poisson(M: np.ndarray) -> np.ndarray:
    """Inverse of (..., 2N, 2N) stacks of M, antisymmetrized; InvalidValue where not finite."""
    try:
        Pi = np.linalg.inv(M)
    except np.linalg.LinAlgError:  # LU on entries near the float64 limit can meet a zero pivot
        Pi = np.full_like(M, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):  # a difference past the float64 limit
        Pi = 0.5 * (Pi - Pi.swapaxes(-1, -2))
    if not np.isfinite(Pi).all():
        raise InvalidValue("the inverse of the two-form matrix is not finite")
    return Pi


#: ||C Upsilon||_F^2 <= this = r^2 puts every sigma(K) in [1 - r, 1 + r] = [0.1, 1.9], above
#: the cut wherever (1 + r) rank_tol < 1 - r
_CERTIFIED_SQ = 0.81


def _nullity(K: np.ndarray, rank_tol: float = RANK_TOL):
    """Nullity of M from (..., N, N) stacks of K = I + C Upsilon, by the rule stated above.

    A K that is not finite, or whose SVD LAPACK cannot converge, is bad input: InvalidValue.
    """
    if not np.isfinite(K).all():  # C Upsilon overflowed: no count of its singular values holds
        raise InvalidValue("K = I + C(pi) Upsilon has a non-finite entry")
    try:
        s = np.linalg.svd(K, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # LAPACK's SVD of a finite K did not converge
        raise InvalidValue(f"K = I + C(pi) Upsilon: {exc}") from None
    zero = (s <= np.maximum(s[..., :1], 1.0) * rank_tol).sum(-1)
    return zero + zero % 2


@dataclass(frozen=True)
class DeformedStructure:
    """A Lie algebra together with admitted deformations Theta and Upsilon.

    Theta and Upsilon (zero if left out) are read-only copies of the caller's arrays,
    admitted here, once, by ``cohomology._admit``, whose cocycle_residual of Theta is kept as
    ``_residual``.  Kept too: ``upsilon_zero`` (Upsilon has no nonzero entry), I_N, the
    algebra's -f (N x N^2), -Theta, and ``_xi``, solved on first read.
    """

    algebra: LieAlgebra
    Theta: np.ndarray = None
    Upsilon: np.ndarray = None
    upsilon_zero: bool = field(init=False)
    _residual: np.float64 = field(init=False, repr=False)
    _eye: np.ndarray = field(init=False, repr=False)
    _minus_f: np.ndarray = field(init=False, repr=False)
    _minus_Theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.algebra.dim
        Theta = np.zeros((n, n)) if self.Theta is None else np.array(self.Theta, float)
        Upsilon = np.zeros((n, n)) if self.Upsilon is None else np.array(self.Upsilon, float)
        if max(Theta.ndim, Upsilon.ndim) > 2:  # one matrix each, where _admit would take a stack
            raise NotAntisymmetric(f"deformation matrices must be {n} x {n}")
        object.__setattr__(self, '_residual', _admit(self.algebra, Theta, Upsilon))
        for name, A in (('Theta', Theta), ('Upsilon', Upsilon), ('_eye', np.eye(n)),
                        ('_minus_f', self.algebra._minus_f), ('_minus_Theta', -Theta)):
            object.__setattr__(self, name, _read_only(A))
        object.__setattr__(self, 'upsilon_zero', not Upsilon.any())

    @functools.cached_property
    def _xi(self) -> np.ndarray | None:
        """Theta's primitive (``cohomology._primitive``), read-only; None where Theta is not exact."""
        try:
            return _read_only(_primitive(self.algebra, self.Theta)[0])
        except NotExact:
            return None


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
    is not, the Poisson tensor ``_poisson(M)``.  Raises InvalidValue where pi has a
    non-finite entry, or where M is nondegenerate but its inverse is not finite.
    """
    pi = np.asarray(pi, float)
    _require_finite("pi", pi)
    n = structure.algebra.dim
    with np.errstate(over="ignore", invalid="ignore"):  # a C or K past the float64 limit: bad input
        C = lie_poisson_block(structure, pi)
        K = structure._eye + C @ structure.Upsilon
    nullity = int(_nullity(K, rank_tol))
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


def decide_grid(algebra: LieAlgebra, Theta, Upsilon, pi, rank_tol: float = RANK_TOL) -> GridReport:
    """Decide at momentum pi each point of (..., N, N) Theta and Upsilon stacks that broadcast.

    Points in row-major order, each with the checks, errors and bitwise results of
    DeformedStructure, degeneracy and poisson_tensor; one ``_admit`` call checks each matrix
    once, C(pi) is formed once per Theta, and no SVD is made where the certificate decides.
    """
    pi = np.asarray(pi, float)
    _require_finite("pi", pi)
    Theta, Upsilon = np.asarray(Theta, float), np.asarray(Upsilon, float)
    _admit(algebra, Theta, Upsilon)
    n = algebra.dim
    C = pi.dot(algebra._f_flat).reshape(n, n) + Theta
    r = _CERTIFIED_SQ ** 0.5  # sigma(K) in [1 - r, 1 + r] where certified
    with np.errstate(over="ignore", invalid="ignore"):  # past the float64 limit: not certified
        X = (C @ Upsilon).reshape(-1, n, n)
        svd = ~(np.einsum('gij,gij->g', X, X) <= _CERTIFIED_SQ) | (not rank_tol * (1 + r) < 1 - r)
    nullity = np.zeros(len(X), int)
    nullity[svd] = _nullity(np.eye(n) + X[svd], rank_tol)
    return GridReport(rank=2 * n - nullity, nullity=nullity, poisson=_poisson(
        _omega_blocks(C, Upsilon).reshape(-1, 2 * n, 2 * n)[nullity == 0]))


def load_deformation(path, algebra: LieAlgebra) -> DeformedStructure:
    """Load a deformation spec {"Theta":, "Upsilon":, "xi":} and admit it.

    A non-null xi gives Theta as its coboundary, so InvalidValue rejects a non-null Theta with
    it.  ShapeMismatch names a key whose value is not an N x N (Theta, Upsilon) or N (xi) array
    of numbers.
    """
    data, n = _load_object(path), algebra.dim
    for key, shape in (("Theta", (n, n)), ("Upsilon", (n, n)), ("xi", (n,))):
        try:  # a string, a ragged list or an object fails the conversion
            ok = data.get(key) is None or np.asarray(data[key], float).shape == shape
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ShapeMismatch(f"{path}: {key!r} must be a {shape} array of numbers")
    Theta = data.get("Theta")
    if data.get("xi") is not None:
        if Theta is not None:
            raise InvalidValue(f"{path}: 'Theta' and 'xi' both give Theta; give one of them")
        Theta = delta1_scalar(algebra, data["xi"])
    return DeformedStructure(algebra, Theta, data.get("Upsilon"))
