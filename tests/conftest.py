import numpy as np
import pytest

from liedeform.algebra import registry_algebras


@pytest.fixture(scope="session")
def registry():
    return registry_algebras()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_antisymmetric(rng, n):
    A = rng.normal(size=(n, n))
    return A - A.T
