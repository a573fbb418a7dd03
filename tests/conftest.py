import numpy as np
import pytest

from liedeform.algebra import _REGISTRY, get_algebra


def registry_algebras():
    """All benchmark algebras, with abelian R^2 and R^3."""
    return [get_algebra(name) for name in ("abelian2", "abelian3", *sorted(_REGISTRY))]


@pytest.fixture(scope="session")
def registry():
    return registry_algebras()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_antisymmetric(rng, n):
    A = rng.normal(size=(n, n))
    return A - A.T
