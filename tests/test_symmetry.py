import numpy as np
import pytest

from liedeform.algebra import _expm, abelian, ad_matrix, se2, sl2r, so3
from liedeform.cohomology import delta1_scalar
from liedeform.symmetry import (_cocycle_derivative, _momentum_form_derivative,
                                isotropy_subalgebra)

from conftest import random_antisymmetric

E1, E2, E3 = np.eye(3)


def group_isotropy_check(algebra, u, t: float, Theta, Upsilon) -> float:
    """Max-entry residual of the finite invariance conditions at a = exp(t u)."""
    Theta = np.asarray(Theta, float)
    Upsilon = np.asarray(Upsilon, float)
    Ad = _expm(t * ad_matrix(algebra, u))
    Ad_inv = _expm(-t * ad_matrix(algebra, u))
    r_theta = np.max(np.abs(Ad.T @ Theta @ Ad - Theta), initial=0.0)
    r_upsilon = np.max(np.abs(Ad_inv @ Upsilon @ Ad_inv.T - Upsilon), initial=0.0)
    return float(max(r_theta, r_upsilon))


def theta_about_axis3():
    return delta1_scalar(so3(), [0.0, 0.0, 1.0])


class TestLieDerivativeCocycle:
    def test_zero_element(self, rng):
        Theta = random_antisymmetric(rng, 3)
        assert np.array_equal(_cocycle_derivative(ad_matrix(so3(), np.zeros(3)), Theta),
                              np.zeros((3, 3)))

    def test_abelian_all_vanish(self, rng):
        algebra = abelian(3)
        Theta = random_antisymmetric(rng, 3)
        assert np.array_equal(_cocycle_derivative(ad_matrix(algebra, rng.normal(size=3)), Theta),
                              np.zeros((3, 3)))

    def test_so3_axis_fixing(self):
        Theta = theta_about_axis3()
        assert np.max(np.abs(_cocycle_derivative(ad_matrix(so3(), E3), Theta))) < 1e-14
        assert np.max(np.abs(_cocycle_derivative(ad_matrix(so3(), E1), Theta))) > 0.5

    def test_finite_difference(self, registry, rng):
        # derivative at t = 0 of Ad^T Theta Ad, central differences at h = 1e-5
        h = 1e-5
        for algebra in registry:
            for _ in range(5):
                u = rng.normal(size=algebra.dim)
                Theta = random_antisymmetric(rng, algebra.dim)
                def conj(t):
                    Ad = _expm(t * ad_matrix(algebra, u))
                    return Ad.T @ Theta @ Ad
                fd = (conj(h) - conj(-h)) / (2 * h)
                exact = _cocycle_derivative(ad_matrix(algebra, u), Theta)
                assert np.max(np.abs(fd - exact)) < 1e-7


class TestLieDerivativeMomentumForm:
    def test_zero_element(self, rng):
        Upsilon = random_antisymmetric(rng, 3)
        assert np.array_equal(
            _momentum_form_derivative(ad_matrix(so3(), np.zeros(3)), Upsilon),
            np.zeros((3, 3)))

    def test_zero_upsilon(self, rng):
        assert np.array_equal(
            _momentum_form_derivative(ad_matrix(so3(), rng.normal(size=3)), np.zeros((3, 3))),
            np.zeros((3, 3)))

    def test_so3_axis_fixing_dual(self):
        Upsilon = np.zeros((3, 3))
        Upsilon[0, 1], Upsilon[1, 0] = 1.0, -1.0
        assert np.max(np.abs(_momentum_form_derivative(ad_matrix(so3(), E3), Upsilon))) < 1e-14
        assert np.max(np.abs(_momentum_form_derivative(ad_matrix(so3(), E1), Upsilon))) > 0.5

    def test_finite_difference(self, registry, rng):
        h = 1e-5
        for algebra in registry:
            for _ in range(5):
                u = rng.normal(size=algebra.dim)
                Upsilon = random_antisymmetric(rng, algebra.dim)
                def conj(t):
                    Ad_inv = _expm(-t * ad_matrix(algebra, u))
                    return Ad_inv @ Upsilon @ Ad_inv.T
                fd = (conj(h) - conj(-h)) / (2 * h)
                exact = _momentum_form_derivative(ad_matrix(algebra, u), Upsilon)
                assert np.max(np.abs(fd - exact)) < 1e-7


class TestStackedLieDerivatives:
    def test_stack_matches_row_by_row(self, registry, rng):
        # a (K, N) stack of u gives each row's bytes, also on GL(3)-conjugated algebras
        from test_dynamics import conjugated
        P = np.random.default_rng(7).normal(size=(3, 3, 3)) + 3.0 * np.eye(3)
        for algebra in registry + [conjugated(a, p) for a, p in zip((so3(), sl2r(), se2()), P)]:
            n = algebra.dim
            u = np.concatenate([np.eye(n), rng.normal(size=(6, n))])
            A = random_antisymmetric(rng, n)
            for derivative in (_cocycle_derivative, _momentum_form_derivative):
                stacked = derivative(ad_matrix(algebra, u), A)
                assert stacked.shape == (n + 6, n, n)
                for row, value in zip(u, stacked):
                    assert value.tobytes() == derivative(ad_matrix(algebra, row), A).tobytes()


class TestIsotropySubalgebra:
    def test_abelian_full(self, rng):
        algebra = abelian(3)
        sub = isotropy_subalgebra(algebra, random_antisymmetric(rng, 3),
                                  random_antisymmetric(rng, 3))
        assert sub.dimension == 3
        assert sub.closure_residual < 1e-12

    def test_so3_axis(self):
        sub = isotropy_subalgebra(so3(), theta_about_axis3(), np.zeros((3, 3)))
        assert sub.dimension == 1
        assert np.allclose(np.abs(sub.basis[0]), E3, atol=1e-12)
        assert sub.closure_residual < 1e-12

    def test_generic_inertia_breaks_everything(self):
        sub = isotropy_subalgebra(so3(), np.zeros((3, 3)), np.zeros((3, 3)),
                                  inertia_inv=np.diag([1.0, 0.5, 1.0 / 3.0]))
        assert sub.dimension == 0

    def test_axisymmetric_inertia(self):
        # equal first two moments leave the rotation about axis 3
        sub = isotropy_subalgebra(so3(), np.zeros((3, 3)), np.zeros((3, 3)),
                                  inertia_inv=np.diag([0.5, 0.5, 1.0 / 3.0]))
        assert sub.dimension == 1
        assert np.allclose(np.abs(sub.basis[0]), E3, atol=1e-12)

    def test_basis_orthonormal(self, registry, rng):
        for algebra in registry:
            Theta = delta1_scalar(algebra, rng.normal(size=algebra.dim))
            sub = isotropy_subalgebra(algebra, Theta, np.zeros((algebra.dim,) * 2))
            gram = sub.basis @ sub.basis.T
            assert np.allclose(gram, np.eye(sub.dimension), atol=1e-12)

    def test_closure(self, registry, rng):
        for algebra in registry:
            Theta = delta1_scalar(algebra, rng.normal(size=algebra.dim))
            Upsilon = 0.2 * random_antisymmetric(rng, algebra.dim)
            sub = isotropy_subalgebra(algebra, Theta, Upsilon)
            assert sub.closure_residual < 1e-9


class TestGroupIsotropyCheck:
    def test_identity(self, rng):
        Theta = theta_about_axis3()
        assert group_isotropy_check(so3(), rng.normal(size=3), 0.0,
                                    Theta, np.zeros((3, 3))) < 1e-15

    def test_so3_invariant_direction(self):
        Theta = theta_about_axis3()
        assert group_isotropy_check(so3(), E3, 2.0, Theta, np.zeros((3, 3))) < 1e-9

    def test_so3_broken_direction(self):
        Theta = theta_about_axis3()
        assert group_isotropy_check(so3(), E1, 0.5, Theta, np.zeros((3, 3))) > 1e-3

    def test_exponentiated_invariance(self, registry, rng):
        # members of the isotropy subalgebra stay invariant at finite times
        for algebra in registry:
            Theta = delta1_scalar(algebra, rng.normal(size=algebra.dim))
            Upsilon = 0.1 * random_antisymmetric(rng, algebra.dim)
            sub = isotropy_subalgebra(algebra, Theta, Upsilon)
            for b in sub.basis:
                for t in (-5.0, -1.0, -0.1, 0.1, 1.0, 5.0):
                    assert group_isotropy_check(algebra, b, t, Theta, Upsilon) < 1e-8
