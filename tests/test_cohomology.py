import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedeform.algebra import LieAlgebra, abelian, heisenberg, sl2r, so3
from liedeform.cohomology import (admission_tol, cohomology_dimensions, cocycle_residual,
                                  delta1_scalar, delta1_vector, delta2, solve_primitive)
from liedeform.errors import NotACocycle, NotAntisymmetric, NotExact
from liedeform.phase_space import DeformedStructure, decide_grid

from conftest import random_antisymmetric


def so3_plus_center():
    """so(3) + R: four-dimensional, supports genuine non-cocycles."""
    f = np.zeros((4, 4, 4))
    f[:3, :3, :3] = so3().f
    return LieAlgebra.from_structure_constants("so3+R", f)


class TestDelta1Scalar:
    def test_so3_example(self):
        Theta = delta1_scalar(so3(), [0.0, 0.0, 1.0])
        assert Theta[0, 1] == -1.0
        assert Theta[1, 0] == 1.0
        assert Theta[0, 2] == 0.0 and Theta[1, 2] == 0.0

    def test_abelian_vanishes(self, rng):
        assert np.array_equal(delta1_scalar(abelian(3), rng.normal(size=3)),
                              np.zeros((3, 3)))

    def test_heisenberg_example(self):
        Theta = delta1_scalar(heisenberg(), [0.0, 0.0, 1.0])
        expected = np.zeros((3, 3))
        expected[0, 1], expected[1, 0] = -1.0, 1.0
        assert np.array_equal(Theta, expected)

    def test_antisymmetric(self, registry, rng):
        for algebra in registry:
            Theta = delta1_scalar(algebra, rng.normal(size=algebra.dim))
            assert np.array_equal(Theta, -Theta.T)


def _delta1_brute(algebra, theta):
    # independent triple-loop evaluation of the three-term coboundary
    n = algebra.dim
    f = algebra.f
    out = np.zeros((n, n, n))
    for a in range(n):
        for m in range(n):
            for nu in range(n):
                s = 0.0
                for k in range(n):
                    s += (-theta[k, nu] * f[k, m, a]
                          + theta[k, m] * f[k, nu, a]
                          - theta[a, k] * f[k, m, nu])
                out[a, m, nu] = s
    return out


class TestDelta1Vector:
    def test_zero_cochain(self, registry):
        for algebra in registry:
            n = algebra.dim
            assert np.array_equal(delta1_vector(algebra, np.zeros((n, n))),
                                  np.zeros((n, n, n)))

    def test_abelian_vanishes(self, rng):
        algebra = abelian(3)
        assert np.array_equal(delta1_vector(algebra, rng.normal(size=(3, 3))),
                              np.zeros((3, 3, 3)))

    def test_so3_identity_not_cocycle(self):
        # frozen from the brute-force oracle: identity on so(3) has residual 1
        residual = delta1_vector(so3(), np.eye(3))
        assert np.max(np.abs(residual)) == 1.0
        assert np.array_equal(residual, _delta1_brute(so3(), np.eye(3)))

    def test_matches_brute_force(self, registry, rng):
        for algebra in registry:
            theta = rng.normal(size=(algebra.dim, algebra.dim))
            assert np.allclose(delta1_vector(algebra, theta),
                               _delta1_brute(algebra, theta), atol=1e-13)

    def test_antisymmetric_in_last_two(self, registry, rng):
        for algebra in registry:
            D = delta1_vector(algebra, rng.normal(size=(algebra.dim,) * 2))
            assert np.max(np.abs(D + np.swapaxes(D, 1, 2))) < 1e-13


class TestDelta2:
    def test_abelian_all_zero(self, rng):
        algebra = abelian(3)
        Theta = random_antisymmetric(rng, 3)
        assert np.array_equal(delta2(algebra, Theta), np.zeros((3, 3, 3)))

    def test_so3_all_cocycles(self, rng):
        algebra = so3()
        for _ in range(20):
            Theta = random_antisymmetric(rng, 3)
            assert np.max(np.abs(delta2(algebra, Theta))) < 1e-14

    def test_heisenberg_theta13(self):
        Theta = np.zeros((3, 3))
        Theta[0, 2], Theta[2, 0] = 1.0, -1.0
        assert np.array_equal(delta2(heisenberg(), Theta), np.zeros((3, 3, 3)))

    def test_rejects_non_antisymmetric(self):
        # the messages solve_primitive gives; on a stack, those of the first failing point
        cases = [
            (np.eye(3), "Theta fails antisymmetry: residual 2.000e+00 > 1.000e-12"),
            (np.array([[0.0, np.nan, 0.0], [np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]]),
             "Theta has a non-finite entry nan at (0, 1)"),
            (np.array([np.zeros((3, 3)), [[0.0, 1.0, np.inf], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                       np.eye(3)]), "Theta has a non-finite entry inf at (0, 2)"),
        ]
        for Theta, message in cases:
            rejects = (delta2, cocycle_residual) + ((solve_primitive,) if Theta.ndim == 2 else ())
            for reject in rejects:
                with pytest.raises(NotAntisymmetric) as info:
                    reject(so3(), Theta)
                assert str(info.value) == message

    def test_totally_antisymmetric(self, rng):
        algebra = so3_plus_center()
        T = delta2(algebra, random_antisymmetric(rng, 4))
        assert np.max(np.abs(T + np.swapaxes(T, 0, 1))) < 1e-13
        assert np.max(np.abs(T + np.swapaxes(T, 1, 2))) < 1e-13

    def test_non_cocycle_exists(self):
        # pairing a rotation generator with the central direction fails closedness
        Theta = np.zeros((4, 4))
        Theta[2, 3], Theta[3, 2] = 1.0, -1.0
        assert cocycle_residual(so3_plus_center(), Theta) == 1.0


class TestBatchAxis:
    def test_stack_matches_each_point(self, registry, rng):
        for algebra in registry + [so3_plus_center()]:
            n = algebra.dim
            Theta = np.array([random_antisymmetric(rng, n) for _ in range(8)])
            Theta[::3] = np.round(Theta[::3])      # integral points: absolute tolerance
            res, tol = cocycle_residual(algebra, Theta), admission_tol(algebra, Theta)
            assert res.shape == tol.shape == (8,)
            for T, r, t in zip(Theta, res, tol):
                assert r == cocycle_residual(algebra, T)
                assert t == admission_tol(algebra, T)
            assert np.array_equal(delta2(algebra, Theta[3]), delta2(algebra, Theta)[3])
            xi = rng.normal(size=(5, n))
            assert np.array_equal(delta1_scalar(algebra, xi)[4], delta1_scalar(algebra, xi[4]))


class TestIsSymplecticCocycle:
    """Admission with Upsilon = 0, through solve_primitive: it raises NotExact only after _admit."""

    def test_coboundaries_are_cocycles(self, registry, rng):
        for algebra in registry:
            for _ in range(10):
                theta = delta1_scalar(algebra, rng.normal(size=algebra.dim))
                solve_primitive(algebra, theta)

    def test_symmetric_rejected(self):
        with pytest.raises(NotAntisymmetric):
            solve_primitive(so3(), np.eye(3))

    def test_heisenberg_theta13(self):
        # closed but not exact: admitted, then NotExact
        Theta = np.zeros((3, 3))
        Theta[0, 2], Theta[2, 0] = 1.0, -1.0
        with pytest.raises(NotExact):
            solve_primitive(heisenberg(), Theta)


#: finite entries whose delta2 sums inf - inf on sl2r: a NaN residual
OVERFLOWING_THETA = 1e308 * np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -1.0, 0.0]])


class TestOneAdmissionRule:
    def test_overflowing_theta_is_rejected_by_every_entry_point(self):
        # one NotACocycle, and no RuntimeWarning (an error under the test configuration)
        algebra, Theta = sl2r(), OVERFLOWING_THETA
        message = r"^Theta is not a two-cocycle: residual nan > 1\.000e-12$"
        for admit in (lambda: DeformedStructure(algebra, Theta),
                      lambda: decide_grid(algebra, Theta[None], np.zeros((1, 3, 3)), np.zeros(3)),
                      lambda: solve_primitive(algebra, Theta)):
            with pytest.raises(NotACocycle, match=message):
                admit()

    def test_tolerance_does_not_overflow(self):
        # max|Theta| max|f| = 1.95e308 overflows, but 1e-9 of it does not: no admission at inf
        f = np.zeros((5, 5, 5))
        f[:3, :3, :3] = 1.5 * so3().f
        algebra = LieAlgebra.from_structure_constants("so3x1.5+R2", f)
        Theta = np.zeros((5, 5))
        Theta[3, 4], Theta[4, 3] = 1.3e308, -1.3e308  # a cocycle: e4, e5 are central
        Theta[2, 3], Theta[3, 2] = 1e300, -1e300      # not one: delta2 residual 1.5e300
        assert admission_tol(algebra, Theta) == 1e-9 * 1.3e308 * 1.5
        with pytest.raises(NotACocycle) as info:
            DeformedStructure(algebra, Theta)
        assert str(info.value) == "Theta is not a two-cocycle: residual 1.500e+300 > 1.950e+299"
        with pytest.raises(NotACocycle):
            solve_primitive(algebra, Theta)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 2), (4, 4), (3,), (1, 3, 3)])
    def test_wrongly_shaped_theta_is_not_a_cocycle(self, shape):
        for admit in (DeformedStructure, solve_primitive):
            with pytest.raises(NotAntisymmetric):
                admit(so3(), np.zeros(shape))

    def test_agrees_with_deformed_structure(self, registry, rng):
        for algebra in registry + [so3_plus_center()]:
            for _ in range(10):
                Theta = random_antisymmetric(rng, algebra.dim)
                try:
                    DeformedStructure(algebra, Theta)
                except NotACocycle:
                    admitted = False
                else:
                    admitted = True
                try:
                    solve_primitive(algebra, Theta)
                except NotACocycle:
                    assert not admitted
                except NotExact:  # raised only after admission
                    assert admitted
                else:
                    assert admitted


class TestSolvePrimitive:
    @pytest.mark.parametrize("Theta, error, message", [
        (np.eye(3), NotAntisymmetric, "Theta fails antisymmetry: residual 2.000e+00 > 1.000e-12"),
        (np.array([[0.0, np.nan, 0.0], [np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]]), NotAntisymmetric,
         "Theta has a non-finite entry nan at (0, 1)"),
        (np.zeros((3, 4)), NotAntisymmetric, "Theta must be square, got shape (3, 4)"),
        (np.zeros((2, 2)), NotAntisymmetric, "deformation matrices must be 3 x 3"),
        (OVERFLOWING_THETA, NotACocycle, "Theta is not a two-cocycle: residual nan > 1.000e-12"),
    ])
    def test_rejects_with_the_admission_messages(self, Theta, error, message):
        with pytest.raises(error) as info:
            solve_primitive(sl2r(), Theta)
        assert str(info.value) == message

    def test_one_dimensional_algebra(self):
        # no pairs a < b: the coboundary matrix is 0 x 1 and every xi is a primitive of 0
        xi, residual, kernel_dim = solve_primitive(abelian(1), np.zeros((1, 1)))
        assert np.array_equal(xi, [0.0]) and residual == 0.0 and kernel_dim == 1

    def test_so3_inversion(self):
        Theta = np.zeros((3, 3))
        Theta[0, 1], Theta[1, 0] = -1.0, 1.0
        xi, residual, kernel_dim = solve_primitive(so3(), Theta)
        assert np.allclose(xi, [0.0, 0.0, 1.0], atol=1e-13)
        assert residual < 1e-14
        assert kernel_dim == 0

    def test_zero_cocycle(self, registry):
        for algebra in registry:
            n = algebra.dim
            xi, residual, _ = solve_primitive(algebra, np.zeros((n, n)))
            assert np.array_equal(xi, np.zeros(n))
            assert residual == 0.0

    def test_heisenberg_not_exact(self):
        Theta = np.zeros((3, 3))
        Theta[0, 2], Theta[2, 0] = 1.0, -1.0
        with pytest.raises(NotExact) as excinfo:
            solve_primitive(heisenberg(), Theta)
        assert excinfo.value.residual > 0.5

    def test_not_a_cocycle(self):
        Theta = np.zeros((4, 4))
        Theta[2, 3], Theta[3, 2] = 1.0, -1.0
        with pytest.raises(NotACocycle) as info:
            solve_primitive(so3_plus_center(), Theta)
        assert str(info.value) == "Theta is not a two-cocycle: residual 1.000e+00 > 1.000e-12"

    def test_kernel_dimension_heisenberg(self):
        # coboundary map kills xi_1, xi_2 on h3
        Theta = delta1_scalar(heisenberg(), [0.0, 0.0, 2.0])
        xi, residual, kernel_dim = solve_primitive(heisenberg(), Theta)
        assert kernel_dim == 2
        assert residual < 1e-14
        assert np.allclose(xi, [0.0, 0.0, 2.0], atol=1e-13)


class TestCohomologyDimensions:
    @pytest.mark.parametrize("factory,expected", [
        (so3, (3, 3, 0, 0)),
        (sl2r, (3, 3, 0, 0)),
        (lambda: abelian(3), (3, 0, 3, 3)),
        (heisenberg, (3, 1, 2, 2)),
    ])
    def test_registry(self, factory, expected):
        dims = cohomology_dimensions(factory())
        assert (dims.z2, dims.b2, dims.h2, dims.h1) == expected

    def test_se2(self):
        # derived from the rank of the two coboundary maps on the se(2) basis
        from liedeform.algebra import se2
        dims = cohomology_dimensions(se2())
        assert (dims.z2, dims.b2, dims.h2, dims.h1) == (3, 2, 1, 1)


class TestProperties:
    def test_delta2_after_delta1_vanishes(self, registry, rng):
        for algebra in registry:
            for _ in range(100):
                xi = rng.normal(size=algebra.dim)
                T = delta2(algebra, delta1_scalar(algebra, xi))
                assert np.max(np.abs(T)) < 1e-12, algebra.name

    def test_displays_agree_for_antisymmetric(self, registry, rng):
        # degree-one and degree-two residuals coincide up to (a,m,n)->(n,m,a)
        for algebra in registry:
            for _ in range(20):
                theta = random_antisymmetric(rng, algebra.dim)
                D = delta1_vector(algebra, theta)
                T = delta2(algebra, theta)
                assert np.max(np.abs(D - np.transpose(T, (2, 1, 0)))) < 1e-14

    def test_whitehead_semisimple(self, rng):
        for algebra in (so3(), sl2r()):
            dims = cohomology_dimensions(algebra)
            assert dims.h1 == 0 and dims.h2 == 0
            for _ in range(20):
                Theta = delta1_scalar(algebra, rng.normal(size=3))
                xi, residual, _ = solve_primitive(algebra, Theta)
                assert residual < 1e-10

    def test_round_trips_semisimple(self, rng):
        for algebra in (so3(), sl2r()):
            for _ in range(20):
                xi = rng.normal(size=3)
                Theta = delta1_scalar(algebra, xi)
                xi_back, _, _ = solve_primitive(algebra, Theta)
                assert np.max(np.abs(xi_back - xi)) < 1e-10
                assert np.max(np.abs(delta1_scalar(algebra, xi_back) - Theta)) < 1e-10


@settings(max_examples=50)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3))
def test_coboundary_in_kernel_hypothesis(xi):
    # delta2(delta1(xi)) = 0 on so(3) for arbitrary xi
    algebra = so3()
    T = delta2(algebra, delta1_scalar(algebra, np.array(xi)))
    assert np.max(np.abs(T)) < 1e-11 * max(1.0, np.max(np.abs(xi)))
