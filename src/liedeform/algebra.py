"""Lie algebras given by structure constants.

Conventions: the rank-3 tensor ``f`` stores f[mu][alpha][beta] with
[e_alpha, e_beta] = e_mu f[mu][alpha][beta].  Everything downstream
(coboundaries, adjoint action, Lie-Poisson blocks) contracts against
this layout.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, InvalidValue, ShapeMismatch

#: acceptance threshold for antisymmetry / Jacobi residuals
AXIOM_TOL = 1e-12

#: relative threshold on sigma_min(B) / sigma_max(B) for Cartan's semisimplicity criterion
SEMISIMPLE_TOL = 1e-9

#: relative bound of _transpose_residual's antisymmetry (or symmetry) check
ANTISYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class ValidationReport:
    antisymmetry_residual: float
    jacobi_residual: float
    tol: float = AXIOM_TOL

    @property
    def accepted(self) -> bool:
        return (self.antisymmetry_residual <= self.tol
                and self.jacobi_residual <= self.tol)


def validate_algebra(f, tol: float = AXIOM_TOL) -> ValidationReport:
    """Check bracket antisymmetry and the Jacobi identity.

    Raises ShapeMismatch for non-cubic input; otherwise always returns a
    report (acceptance is the report's verdict, not an exception).
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 3 or len(set(f.shape)) != 1:
        raise ShapeMismatch(f"structure constants must be N x N x N, got {f.shape}")
    anti = float(np.max(np.abs(f + np.swapaxes(f, 1, 2)))) if f.size else 0.0
    # cyclic sum over the inner contraction index
    jac = (np.einsum('mak,kbc->mabc', f, f)
           + np.einsum('mbk,kca->mabc', f, f)
           + np.einsum('mck,kab->mabc', f, f))
    return ValidationReport(anti, float(np.max(np.abs(jac))) if f.size else 0.0, tol)


@functools.cache
def _pair_index(n: int) -> np.ndarray:
    """Read-only rows (a, b) of the pairs a < b; cached by N, which is all they depend on."""
    return _read_only(np.array(np.triu_indices(n, 1)))


@dataclass(frozen=True)
class LieAlgebra:
    """A finite-dimensional real Lie algebra in a fixed basis; read-only, its constants cached."""

    name: str
    dim: int = field(init=False)  # len(f)
    f: np.ndarray
    _f_flat: np.ndarray = field(init=False, repr=False, compare=False)  # f as N x N*N
    _validation: ValidationReport = field(init=False, repr=False, compare=False)  # f's axioms

    def __post_init__(self):
        f = _read_only(np.array(self.f, dtype=float))  # a copy: the caller's array stays writable
        object.__setattr__(self, '_validation', validate_algebra(f))  # ShapeMismatch unless N^3
        for name, value in (('f', f), ('dim', len(f)), ('_f_flat', f.reshape(len(f), len(f) ** 2))):
            object.__setattr__(self, name, value)

    @classmethod
    def from_structure_constants(cls, name: str, f) -> "LieAlgebra":
        return cls(name, f)._accepted()

    def _accepted(self) -> "LieAlgebra":
        """self, or InvalidValue where f fails the axioms at AXIOM_TOL."""
        report = self._validation
        if not report.accepted:
            raise InvalidValue(
                f"structure constants rejected: antisymmetry residual "
                f"{report.antisymmetry_residual:.3e}, Jacobi residual "
                f"{report.jacobi_residual:.3e} (tol {AXIOM_TOL:.1e})")
        return self

    @functools.cached_property
    def _minus_f(self) -> np.ndarray:
        """-f as N x N*N, which the vector field contracts against."""
        return _read_only(-self._f_flat)

    @functools.cached_property
    def _coboundary(self) -> np.ndarray:
        """Matrix of xi -> delta1_scalar(xi) on the ordered-pair basis (a < b)."""
        a, b = _pair_index(self.dim)
        return _read_only(-self.f[:, a, b].T)

    @functools.cached_property
    def _cohomology_dims(self):
        """cohomology_dimensions' value (cohomology imports this module, so not at the top)."""
        from .cohomology import _cohomology_dimensions
        return _cohomology_dimensions(self)

    @functools.cached_property
    def _killing_inv(self) -> np.ndarray | None:
        """Inverse Killing form where Cartan's criterion (is_semisimple) holds, else None."""
        B = killing_form(self)
        s = np.linalg.svd(B, compute_uv=False)  # descending; NaN where B is not finite
        semisimple = s[0] > 0.0 and s[-1] > SEMISIMPLE_TOL * s[0]
        return _read_only(np.linalg.inv(B)) if semisimple else None

    @functools.cached_property
    def _ad_basis(self) -> np.ndarray:
        """ad_matrix at u = I: entry i is ad of the basis element e_i."""
        return _read_only(ad_matrix(self, np.eye(self.dim)))

    def bracket(self, u, v) -> np.ndarray:
        """[u, v] in components."""
        return np.einsum('mab,a,b->m', self.f, np.asarray(u, float), np.asarray(v, float))


def _read_only(A: np.ndarray) -> np.ndarray:
    A.setflags(write=False)
    return A


def _require_finite(name: str, A, error=InvalidValue):
    """Raise ``error`` naming the first non-finite entry of A, if A has one."""
    if not np.isfinite(A).all():  # argwhere only on failure: the check runs on every input
        bad = np.argwhere(~np.isfinite(A)).tolist()
        index = tuple(bad[0]) if len(bad[0]) > 1 else bad[0][0]
        raise error(f"{name} has a non-finite entry {A[index]} at {index}")


def _transpose_residual(A, symmetric: bool = False):
    """(max|A + A^T| (max|A - A^T| if symmetric), ANTISYMMETRY_TOL * max(1, max|A|)).

    Reduces over the last two axes.  A point with a NaN or inf entry gets a NaN
    bound, and callers reject with ``not (residual <= bound)``, which NaN fails.
    """
    At = A.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):  # entries near the float64 limit
        residual = np.abs(A - At if symmetric else A + At).max(axis=(-2, -1), initial=0.0)
    scale = np.abs(A).max(axis=(-2, -1), initial=0.0)
    return residual, ANTISYMMETRY_TOL * np.where(scale < np.inf, np.maximum(scale, 1.0), np.nan)


def killing_form(algebra: LieAlgebra) -> np.ndarray:
    """B[a][b] = sum_{m,n} f[m][a][n] f[n][b][m]; symmetrized exactly."""
    B = np.einsum('man,nbm->ab', algebra.f, algebra.f)
    return 0.5 * (B + B.T)


def is_semisimple(algebra: LieAlgebra) -> bool:
    """Cartan's criterion: the Killing form B is nondegenerate; decided once per algebra.

    Scale-relative: sigma_min(B) > SEMISIMPLE_TOL * sigma_max(B) > 0, so B = 0 is not semisimple.
    """
    return algebra._killing_inv is not None


def ad_matrix(algebra: LieAlgebra, u) -> np.ndarray:
    """Matrix of ad_u, (ad_u)^m_n = f[m][k][n] u^k, so ad_u @ v = [u, v]; one per row of a stack."""
    return np.einsum('mkn,...k->...mn', algebra.f, np.asarray(u, float))


#: 1/k! for k = 1..24 and 0 for k = 0, as five chunks of five: chunk j holds the
#: coefficients of A^(5j) (I, A, ..., A^4) in the degree-24 Taylor polynomial of exp(A) - I
_EXPM1_TAYLOR = np.array([0.0, *(1.0 / np.cumprod(np.arange(1.0, 25.0)))]).reshape(5, 5)


def _expm(X, minus_identity: bool = False) -> np.ndarray:
    """exp(X), or exp(X) - I, for a (..., n, n) stack, each matrix on its own, in numpy alone.

    Scaling and squaring: each A = X / 2^s has ||A||_1 <= 2, where the degree-24 Taylor
    polynomial, evaluated by Paterson-Stockmeyer in eight matmuls, leaves a remainder of
    norm at most ||A||^25 / 25! * 26 / 24 <= 2.4e-18, far below the unit roundoff even
    relative to ||exp(A)|| >= e^-2; then s squarings, so the error grows with
    log2 ||X||_1, not with ||X||_1.  With ``minus_identity`` a
    matrix with s = 0 gets the polynomial without I, which keeps the bits of a small
    exp(X) - I that 1 + x would round away.  Scaling by 2^-s is exact, so a matrix whose
    square is exactly zero gets I + X exactly.
    """
    X = np.asarray(X, dtype=float)
    shape, n = X.shape, X.shape[-1]
    X = X.reshape(-1, n, n)
    # ||X||_1 < 2^e, so s = e - 1 gives ||A||_1 < 2; a non-finite X gives e = 0 and a
    # non-finite result
    s = np.maximum(np.frexp(np.abs(X).sum(axis=1).max(axis=1, initial=0.0))[1] - 1, 0)
    A = X * np.ldexp(1.0, -s)[:, None, None]
    eye = np.eye(n)
    powers = [eye, A]
    for _ in range(4):
        powers.append(powers[-1] @ A)
    A5 = powers.pop()
    F = None
    for coefficients in _EXPM1_TAYLOR[::-1]:
        chunk = sum(c * P for c, P in zip(coefficients, powers))
        F = chunk if F is None else chunk + A5 @ F
    E = F + eye
    for j in range(s.max(initial=0)):
        square = s > j
        E[square] = E[square] @ E[square]
    if minus_identity:
        scaled = s > 0
        F[scaled] = E[scaled] - eye
        E = F
    return E.reshape(shape)


# ---------------------------------------------------------------------------
# benchmark registry
# ---------------------------------------------------------------------------

def abelian(n: int) -> LieAlgebra:
    return LieAlgebra.from_structure_constants(f"abelian{n}", np.zeros((n, n, n)))


def so3() -> LieAlgebra:
    # the Levi-Civita symbol: [e1, e2] = e3 and cyclic
    f = np.zeros((3, 3, 3))
    f[0, 1, 2] = f[1, 2, 0] = f[2, 0, 1] = 1.0
    f[0, 2, 1] = f[2, 1, 0] = f[1, 0, 2] = -1.0
    return LieAlgebra.from_structure_constants("so3", f)


def sl2r() -> LieAlgebra:
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    f = np.zeros((3, 3, 3))
    f[1, 0, 1] = 2.0
    f[1, 1, 0] = -2.0
    f[2, 0, 2] = -2.0
    f[2, 2, 0] = 2.0
    f[0, 1, 2] = 1.0
    f[0, 2, 1] = -1.0
    return LieAlgebra.from_structure_constants("sl2r", f)


def heisenberg() -> LieAlgebra:
    # [e1, e2] = e3, all else zero
    f = np.zeros((3, 3, 3))
    f[2, 0, 1] = 1.0
    f[2, 1, 0] = -1.0
    return LieAlgebra.from_structure_constants("heisenberg", f)


def se2() -> LieAlgebra:
    # translations e1, e2 and rotation e3: [e3,e1] = e2, [e3,e2] = -e1
    f = np.zeros((3, 3, 3))
    f[1, 2, 0] = 1.0
    f[1, 0, 2] = -1.0
    f[0, 2, 1] = -1.0
    f[0, 1, 2] = 1.0
    return LieAlgebra.from_structure_constants("se2", f)


_REGISTRY = {
    "so3": so3,
    "sl2r": sl2r,
    "heisenberg": heisenberg,
    "se2": se2,
}


@functools.cache
def get_algebra(name: str) -> LieAlgebra:
    """The benchmark algebra of this name ('abelianN' is N-dim abelian), built once per process."""
    if name in _REGISTRY:
        return _REGISTRY[name]()
    if name.startswith("abelian"):
        n = name[len("abelian"):]
        if not (n.isdecimal() and int(n) > 0):
            raise InvalidValue(f"registry algebra {name!r}: abelian<N> needs a positive integer N")
        return abelian(int(n))
    raise InvalidInput(f"unknown registry algebra {name!r}; "
                       f"known: {sorted(_REGISTRY) + ['abelian<N>']}")


def _load_json(path):
    """The JSON value in the file at ``path``; InvalidValue if its bytes do not decode."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:  # a ValueError that is neither bad JSON nor a bad path
        raise InvalidValue(f"{path}: {exc}") from None


def _load_object(path) -> dict:
    """The JSON object in the spec file at ``path``; InvalidInput if its top level is not one."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InvalidInput(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def load_algebra(path) -> LieAlgebra:
    """Load an algebra spec file {"name":, "dim":, "f":} and validate it."""
    return _read_algebra(path)._accepted()


def _read_algebra(path) -> LieAlgebra:
    """The algebra in a spec file, its axiom residuals computed but not yet judged."""
    data = _load_object(path)
    for key in ("name", "dim", "f"):
        if key not in data:
            raise InvalidInput(f"{path}: missing key {key!r}")
    try:  # a string, a ragged list or an object fails the conversion
        f = np.asarray(data["f"], dtype=float)
    except (TypeError, ValueError):
        raise ShapeMismatch(f"{path}: 'f' must be an array of numbers") from None
    if f.shape != (data["dim"],) * 3:
        raise ShapeMismatch(f"{path}: declared dim {data['dim']} but f has shape {f.shape}")
    return LieAlgebra(data["name"], f)
