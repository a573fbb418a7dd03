"""Constants shared through caches are read-only and equal what a fresh computation gives.

``get_algebra`` builds one ``LieAlgebra`` per registry name per process.  Each ``LieAlgebra``
keeps its axiom residuals from construction and computes once, on first use, its inverse
Killing form (with the semisimplicity verdict), its ad stack at the basis, -f, the coboundary
matrix on the pair basis and its cohomology dimensions.  Every caller then reads the same
values, so a write to one would change every later result, and a cached value that differed
from the formula it stands for would change every report that reads it.
"""
import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from liedeform.algebra import (SEMISIMPLE_TOL, LieAlgebra, ad_matrix, get_algebra,
                               is_semisimple, killing_form, validate_algebra)
from liedeform.cohomology import (EXACTNESS_TOL, _cohomology_dimensions, _primitive,
                                  cocycle_residual, cohomology_dimensions, delta1_scalar)
from liedeform.dynamics import _casimir_monitor, so3_vector_representation
from liedeform.errors import NotExact
from liedeform.phase_space import DeformedStructure
from conftest import registry_algebras
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
    s = np.linalg.svd(B, compute_uv=False)
    semisimple = s[0] > 0.0 and s[-1] > SEMISIMPLE_TOL * s[0]
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


def fresh_cohomology_constants(algebra):
    """(axiom report, -f, coboundary matrix, dims) of an uncached copy, by the formulas."""
    fresh = LieAlgebra.from_structure_constants(algebra.name, algebra.f)
    n = fresh.dim
    a, b = np.triu_indices(n, 1)
    return (validate_algebra(fresh.f), -fresh.f.reshape(n, n * n), -fresh.f[:, a, b].T,
            _cohomology_dimensions(fresh))


@pytest.mark.parametrize("name", NAMES)
def test_cached_values_are_kept_and_refuse_writes(name):
    algebra = get_algebra(name)
    assert algebra._validation is algebra._validation
    assert cohomology_dimensions(algebra) is cohomology_dimensions(algebra)
    assert cohomology_dimensions(algebra) is algebra._cohomology_dims
    for attr in ("_minus_f", "_coboundary"):
        A = getattr(algebra, attr)
        assert getattr(algebra, attr) is A and not A.flags.writeable
        if A.size:  # abelian1 has no pairs: its coboundary matrix is 0 x 1
            with pytest.raises(ValueError):
                A[(0,) * A.ndim] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cohomology_dimensions(algebra).h2 = 0
    # every structure reads the algebra's -f, not a negation of its own
    assert DeformedStructure(algebra)._minus_f is algebra._minus_f


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda algebra: algebra.name)
def test_cached_cohomology_constants_are_the_fresh_bytes(algebra):
    report, minus_f, coboundary, dims = fresh_cohomology_constants(algebra)
    for _ in range(2):  # the first read computes and stores, the second reads the store
        assert algebra._validation == report
        assert np.array([algebra._validation.antisymmetry_residual,
                         algebra._validation.jacobi_residual]).tobytes() == np.array(
            [report.antisymmetry_residual, report.jacobi_residual]).tobytes()
        assert algebra._minus_f.tobytes() == minus_f.tobytes()
        assert algebra._coboundary.shape == coboundary.shape
        assert algebra._coboundary.tobytes() == coboundary.tobytes()
        assert cohomology_dimensions(algebra) == dims


def test_cached_values_are_computed_on_first_use():
    algebra = LieAlgebra.from_structure_constants("so3", get_algebra("so3").f)
    lazy = ("_minus_f", "_coboundary", "_cohomology_dims", "_killing_inv", "_ad_basis")
    assert not set(lazy) & set(algebra.__dict__)
    assert algebra._validation.accepted  # the axioms are checked on construction
    cohomology_dimensions(algebra)
    assert {"_coboundary", "_cohomology_dims"} <= set(algebra.__dict__)


def test_import_builds_no_algebra():
    script = ("import liedeform, liedeform.cli\n"
              "from liedeform.algebra import get_algebra\n"
              "assert get_algebra.cache_info().currsize == 0\n")
    subprocess.run([sys.executable, "-c", script], check=True)


def test_construction_leaves_the_callers_array_writable():
    for f in (np.array(get_algebra("so3").f), np.ones((2, 2, 2))):  # accepted, rejected
        try:
            LieAlgebra.from_structure_constants("x", f)
        except ValueError:
            pass
        assert f.flags.writeable


def lstsq_primitive(algebra, Theta):
    """_primitive by np.linalg.lstsq, as it was solved before the gufunc binding."""
    a, b = np.triu_indices(algebra.dim, 1)
    xi, _, rank, _ = np.linalg.lstsq(-algebra.f[:, a, b].T, Theta[a, b], rcond=None)
    residual = float(np.max(np.abs(Theta - delta1_scalar(algebra, xi)), initial=0.0))
    scale = float(np.max(np.abs(Theta), initial=0.0))
    if residual > EXACTNESS_TOL * scale:
        raise NotExact(f"no primitive: residual {residual:.3e} vs scale {scale:.3e}",
                       xi=xi, residual=residual)
    return xi, residual, algebra.dim - rank


def outcome(solve, algebra, Theta):
    """(xi bytes, repr of residual, kernel_dim with its type) or the NotExact raised."""
    try:
        xi, residual, kernel_dim = solve(algebra, Theta)
        return xi.tobytes(), xi.shape, repr(residual), kernel_dim, type(kernel_dim)
    except NotExact as exc:
        return str(exc), exc.xi.tobytes(), exc.xi.shape, repr(exc.residual)


@pytest.mark.parametrize("algebra", [get_algebra("abelian1"), *ALGEBRAS],
                         ids=lambda algebra: algebra.name)
def test_primitive_is_the_bytes_of_np_linalg_lstsq(algebra):
    rng = np.random.default_rng(11)
    n = algebra.dim
    thetas = [np.zeros((n, n))]
    for scale in (1e-8, 1.0, 1e8):
        thetas.append(delta1_scalar(algebra, scale * rng.normal(size=n)))  # exact
        A = scale * rng.normal(size=(n, n))
        thetas.append(A - A.T)  # exact on so3 and sl2r, not on abelian, heisenberg or se2
    exact = 0
    for Theta in thetas:
        DeformedStructure(algebra, Theta)  # admitted: every Theta here is a cocycle
        expected = outcome(lstsq_primitive, algebra, Theta)
        assert outcome(_primitive, algebra, Theta) == expected
        exact += len(expected) == 5
    assert exact >= 4  # zero and the coboundaries solve; the check is not all NotExact


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda algebra: algebra.name)
def test_structure_keeps_the_bytes_of_cocycle_residual(algebra, rng):
    for scale in (1e-8, 1.0, 1e8):
        A = scale * rng.normal(size=(algebra.dim, algebra.dim))
        structure = DeformedStructure(algebra, A - A.T)
        assert structure._residual.tobytes() == cocycle_residual(algebra, A - A.T).tobytes()
