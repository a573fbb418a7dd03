"""The paper's consistency claim, tested directly: the deformed bracket on g* is Poisson.

In the basis (epsilon_L, dpi) the deformed two-form has the matrix
M = [[C(pi), I], [-I, Upsilon]], C(pi) = pi_m f[m] + Theta.  Its inverse is the Poisson
tensor on T*G in the left-invariant frame, and functions of pi alone close under it, with
the momentum block P(pi) of M^-1 as their bracket.  When Theta is a two-cocycle the form is
closed, whatever the constant Upsilon is, so P satisfies the Jacobi identity; with Upsilon = 0,
P = C(pi) and its Jacobiator is delta2 Theta, which is nonzero when Theta is not a cocycle.
dM/dpi_l has f[l] in its top-left block and nothing else, so
dP/dpi_l = -(M^-1)_{pq} f[l] (M^-1)_{qp}, with p the momentum and q the position block.

The oracle builds M and inverts it itself, independent of the code in phase_space.
"""
import numpy as np
import pytest

from liedeform.algebra import LieAlgebra, heisenberg
from liedeform.cohomology import delta1_scalar
from liedeform.errors import NotACocycle
from liedeform.phase_space import DeformedStructure

from conftest import random_antisymmetric, registry_algebras
from test_cohomology import so3_plus_center


def book():
    """[e3, e1] = e1, [e3, e2] = e2: not unimodular."""
    f = np.zeros((3, 3, 3))
    f[0, 2, 0], f[0, 0, 2], f[1, 2, 1], f[1, 1, 2] = 1.0, -1.0, 1.0, -1.0
    return LieAlgebra.from_structure_constants("book", f)


def jacobiator(f, Theta, Upsilon, pi):
    """Max-entry norm of sum_cyc P^{il} dP^{jk}/dpi_l, and the bound's scale |P|^2 |f|."""
    n = len(f)
    eye = np.eye(n)
    Minv = np.linalg.inv(np.block([[np.einsum('m,mab->ab', pi, f) + Theta, eye],
                                   [-eye, Upsilon]]))
    P = Minv[n:, n:]
    dP = -np.einsum('iq,lqr,rj->lij', Minv[n:, :n], f, Minv[:n, n:])
    T = np.einsum('il,ljk->ijk', P, dP)
    J = T + T.transpose(1, 2, 0) + T.transpose(2, 0, 1)
    return np.max(np.abs(J), initial=0.0), np.max(np.abs(P)) ** 2 * np.max(np.abs(f), initial=0.0)


ALGEBRAS = registry_algebras() + [book(), so3_plus_center()]


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda algebra: algebra.name)
@pytest.mark.parametrize("with_upsilon", [False, True])
def test_jacobi_holds_for_an_exact_theta(algebra, with_upsilon, rng):
    n = algebra.dim
    for _ in range(5):
        Theta = delta1_scalar(algebra, rng.normal(size=n))
        Upsilon = 0.3 * random_antisymmetric(rng, n) if with_upsilon else np.zeros((n, n))
        DeformedStructure(algebra, Theta, Upsilon)  # admitted
        residual, scale = jacobiator(algebra.f, Theta, Upsilon, rng.normal(size=n))
        assert residual <= 1e-10 * max(1.0, scale), (algebra.name, residual)


@pytest.mark.parametrize("with_upsilon", [False, True])
def test_jacobi_holds_for_a_non_exact_cocycle(with_upsilon, rng):
    # heisenberg's e1 ^ e3 is a cocycle but no coboundary (H2 = 2)
    algebra = heisenberg()
    Theta = np.zeros((3, 3))
    Theta[0, 2], Theta[2, 0] = 1.0, -1.0
    for _ in range(5):
        Upsilon = 0.3 * random_antisymmetric(rng, 3) if with_upsilon else np.zeros((3, 3))
        DeformedStructure(algebra, Theta, Upsilon)
        residual, scale = jacobiator(algebra.f, Theta, Upsilon, rng.normal(size=3))
        assert residual <= 1e-10 * max(1.0, scale), residual


@pytest.mark.parametrize("with_upsilon", [False, True])
def test_jacobi_fails_where_admission_does(with_upsilon, rng):
    # so3 + R with Theta = e3 ^ e4: delta2 Theta = 1, so the bracket is not Poisson
    algebra = so3_plus_center()
    Theta = np.zeros((4, 4))
    Theta[2, 3], Theta[3, 2] = 1.0, -1.0
    for _ in range(5):
        Upsilon = 0.3 * random_antisymmetric(rng, 4) if with_upsilon else np.zeros((4, 4))
        with pytest.raises(NotACocycle):
            DeformedStructure(algebra, Theta, Upsilon)
        residual, _ = jacobiator(algebra.f, Theta, Upsilon, rng.normal(size=4))
        assert residual >= 1e-3, residual
