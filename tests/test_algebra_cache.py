"""Constants shared through caches are read-only and equal what a fresh computation gives.

``get_algebra`` builds one ``LieAlgebra`` per registry name per process, and each
``LieAlgebra`` computes its inverse Killing form (with the semisimplicity verdict) and its
ad stack at the basis once, on first use.  Every caller then reads the same arrays, so a
write to one would change every later result, and a cached value that differed from the
formula it stands for would change every report that reads it.
"""
import dataclasses

import numpy as np
import pytest

from liedeform.algebra import (SEMISIMPLE_TOL, LieAlgebra, ad_matrix, get_algebra,
                               is_semisimple, killing_form, registry_algebras)
from liedeform.cohomology import _primitive, delta1_scalar
from liedeform.dynamics import _casimir_monitor, so3_vector_representation
from liedeform.phase_space import DeformedStructure
from test_dynamics import conjugated

NAMES = ["so3", "sl2r", "heisenberg", "se2", "abelian1", "abelian3"]


def algebras():
    """Every registry algebra, then each 3-dimensional one in a random GL(3) basis."""
    rng = np.random.default_rng(7)
    conjugates = [conjugated(algebra, np.eye(3) + 0.4 * rng.normal(size=(3, 3)))
                  for algebra in registry_algebras() if algebra.dim == 3]
    return registry_algebras() + conjugates


ALGEBRAS = algebras()


def fresh_constants(algebra):
    """(verdict, inverse Killing form or None, ad stack) of an uncached copy, by the formulas."""
    fresh = LieAlgebra.from_structure_constants(algebra.name, algebra.f)
    B = killing_form(fresh)
    scale = float(np.max(np.abs(B)))
    semisimple = scale != 0.0 and abs(np.linalg.det(B)) > SEMISIMPLE_TOL * scale ** fresh.dim
    return (bool(semisimple), np.linalg.inv(B) if semisimple else None,
            ad_matrix(fresh, np.eye(fresh.dim)))


@pytest.mark.parametrize("name", NAMES)
def test_one_instance_per_name(name):
    assert get_algebra(name) is get_algebra(name)


def test_registry_algebras_are_the_shared_instances():
    assert all(algebra is get_algebra(algebra.name) for algebra in registry_algebras())


def test_so3_representation_is_a_private_copy():
    rep = so3_vector_representation()
    rep[0, 0, 0] = 1.0  # writable, and not a view of the shared algebra
    assert get_algebra("so3").f[0, 0, 0] == 0.0
    assert so3_vector_representation()[0, 0, 0] == 0.0


@pytest.mark.parametrize("name", NAMES)
def test_shared_arrays_refuse_writes(name):
    algebra = get_algebra(name)
    arrays = [algebra.f, algebra._f_flat, algebra._ad_basis]
    if is_semisimple(algebra):
        arrays.append(algebra._killing_inv)
    for A in arrays:
        with pytest.raises(ValueError):
            A[(0,) * A.ndim] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        algebra._ad_basis = np.zeros_like(algebra._ad_basis)


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda algebra: algebra.name)
def test_cached_constants_are_the_fresh_bytes(algebra):
    semisimple, killing_inv, ad = fresh_constants(algebra)
    for _ in range(2):  # the first read computes and stores, the second reads the store
        assert is_semisimple(algebra) is semisimple
        assert algebra._ad_basis.tobytes() == ad.tobytes()
        if semisimple:
            assert algebra._killing_inv.tobytes() == killing_inv.tobytes()
        else:
            assert algebra._killing_inv is None
    assert algebra.__dict__["_ad_basis"] is algebra._ad_basis


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda algebra: algebra.name)
def test_casimir_monitor_is_the_fresh_bytes(algebra, rng):
    semisimple, killing_inv, _ = fresh_constants(algebra)
    structure = DeformedStructure(algebra, delta1_scalar(algebra, rng.normal(size=algebra.dim)))
    monitor = _casimir_monitor(structure)
    assert (monitor is not None) == semisimple
    if semisimple:
        pis = rng.normal(size=(50, algebra.dim))
        sigma = pis - _primitive(structure.algebra, structure.Theta)[0]
        expected = (sigma[:, None, :] @ killing_inv @ sigma[:, :, None])[:, 0, 0]
        assert monitor(pis).tobytes() == expected.tobytes()
