import numpy as np
import pytest

from liedeform.algebra import _REGISTRY, LieAlgebra, get_algebra


def registry_algebras():
    """All benchmark algebras, with abelian R^2 and R^3."""
    return [get_algebra(name) for name in ("abelian2", "abelian3", *sorted(_REGISTRY))]


def sheared(algebra, t):
    """The algebra in the basis e'_a = P[d, a] e_d with P = I + t E_01: integer f for integer t."""
    P, P_inv = np.eye(algebra.dim), np.eye(algebra.dim)
    P[0, 1], P_inv[0, 1] = t, -t
    f = np.einsum('mc,cde,da,eb->mab', P_inv, algebra.f, P, P)
    return LieAlgebra.from_structure_constants(f"{algebra.name}_sheared", f)


@pytest.fixture(scope="session")
def registry():
    return registry_algebras()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_antisymmetric(rng, n):
    A = rng.normal(size=(n, n))
    return A - A.T
