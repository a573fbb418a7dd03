import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from liedeform.algebra import (LieAlgebra, _expm, abelian, ad_matrix, get_algebra,
                               heisenberg, is_semisimple, killing_form, load_algebra,
                               se2, sl2r, so3, validate_algebra)
from liedeform.errors import InvalidInput, LieDeformError, ShapeMismatch
from conftest import sheared


class TestValidation:
    def test_so3_exact(self):
        report = validate_algebra(so3().f)
        assert report.antisymmetry_residual == 0.0
        assert report.jacobi_residual == 0.0
        assert report.accepted

    def test_abelian_exact(self):
        report = validate_algebra(np.zeros((4, 4, 4)))
        assert report.antisymmetry_residual == 0.0
        assert report.jacobi_residual == 0.0

    def test_perturbed_so3_rejected(self):
        f = so3().f.copy()
        f[0, 0, 1] = 0.3
        f[0, 1, 0] = -0.3  # keep antisymmetry, break Jacobi
        report = validate_algebra(f)
        assert report.jacobi_residual > 1e-12
        assert not report.accepted

    def test_non_cubic_raises(self):
        with pytest.raises(ShapeMismatch):
            validate_algebra(np.zeros((3, 3)))
        with pytest.raises(ShapeMismatch):
            validate_algebra(np.zeros((3, 3, 2)))

    def test_dim_is_derived_from_f(self, registry):
        for algebra in registry:
            assert algebra.dim == len(algebra.f), algebra.name
        algebra = LieAlgebra("so3 copy", so3().f)  # no dim to contradict f
        assert algebra.dim == 3 and np.array_equal(algebra.f, so3().f)
        for scalar in (1.0, np.float64(0.0)):
            with pytest.raises(ShapeMismatch):
                LieAlgebra("scalar", scalar)
            with pytest.raises(ShapeMismatch):
                LieAlgebra.from_structure_constants("scalar", scalar)

    def test_registry_axioms(self, registry):
        for algebra in registry:
            report = validate_algebra(algebra.f)
            assert report.antisymmetry_residual == 0.0, algebra.name
            assert report.jacobi_residual == 0.0, algebra.name


class TestKillingForm:
    def test_so3(self):
        assert np.array_equal(killing_form(so3()), -2.0 * np.eye(3))

    def test_abelian_zero(self):
        assert np.array_equal(killing_form(abelian(3)), np.zeros((3, 3)))

    def test_heisenberg_zero(self):
        assert np.array_equal(killing_form(heisenberg()), np.zeros((3, 3)))

    def test_symmetry_exact(self, registry, rng):
        for algebra in registry:
            B = killing_form(algebra)
            assert np.array_equal(B, B.T)

    def test_ad_invariance(self, registry, rng):
        # B(ad_u v, w) + B(v, ad_u w) = 0
        for algebra in registry:
            B = killing_form(algebra)
            for _ in range(20):
                u, v, w = rng.normal(size=(3, algebra.dim))
                ad = ad_matrix(algebra, u)
                res = (ad @ v) @ B @ w + v @ B @ (ad @ w)
                assert abs(res) < 1e-10, algebra.name


class TestSemisimplicity:
    def test_branches(self):
        assert is_semisimple(so3())
        assert is_semisimple(sl2r())
        assert not is_semisimple(heisenberg())
        assert not is_semisimple(abelian(2))
        assert not is_semisimple(se2())

    @pytest.mark.parametrize("name, t", [("sl2r", 30), ("so3", 100)])
    def test_a_sheared_basis_stays_semisimple(self, name, t):
        # sigma_min / sigma_max of B is 1.8e-5 and 1.0e-8 here; |det B| / max|B|^3, which the
        # criterion read before, is 3.4e-10 and 1.0e-12
        algebra = sheared(get_algebra(name), t)
        assert np.array_equal(algebra.f, np.round(algebra.f))
        assert is_semisimple(algebra)

    def test_a_killing_form_near_the_float64_limit(self):
        # B = -2e306 I: max|B|^3 overflows a float, which raised before the singular values
        assert is_semisimple(LieAlgebra("so3", 1e153 * so3().f))


class TestAdjoint:
    def test_so3_e3_generator(self):
        ad3 = ad_matrix(so3(), [0.0, 0.0, 1.0])
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(ad3, expected)

    def test_zero_element(self, registry):
        for algebra in registry:
            assert np.array_equal(ad_matrix(algebra, np.zeros(algebra.dim)),
                                  np.zeros((algebra.dim, algebra.dim)))

    def test_ad_u_kills_u(self, registry, rng):
        for algebra in registry:
            for _ in range(10):
                u = rng.normal(size=algebra.dim)
                assert np.max(np.abs(ad_matrix(algebra, u) @ u)) < 1e-13

    def test_ad_is_bracket(self, registry, rng):
        for algebra in registry:
            for _ in range(10):
                u, v = rng.normal(size=(2, algebra.dim))
                assert np.allclose(ad_matrix(algebra, u) @ v,
                                   algebra.bracket(u, v), atol=1e-13)

    def test_homomorphism(self, registry, rng):
        # ad_[u,v] = ad_u ad_v - ad_v ad_u on 100 random pairs per algebra
        for algebra in registry:
            for _ in range(100):
                u, v = rng.normal(size=(2, algebra.dim))
                lhs = ad_matrix(algebra, algebra.bracket(u, v))
                adu, adv = ad_matrix(algebra, u), ad_matrix(algebra, v)
                assert np.max(np.abs(lhs - (adu @ adv - adv @ adu))) < 1e-10


class TestAdExp:
    """Ad(exp(t u)) as _expm(t * ad_u): the exponential behind integrate(rep=...)."""

    def test_t_zero_identity(self, registry, rng):
        for algebra in registry:
            u = rng.normal(size=algebra.dim)
            assert np.allclose(_expm(0.0 * ad_matrix(algebra, u)), np.eye(algebra.dim),
                               atol=1e-15)

    def test_so3_quarter_turn(self):
        A = _expm(np.pi / 2 * ad_matrix(so3(), [0.0, 0.0, 1.0]))
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(A, expected, atol=1e-14)

    def test_heisenberg_nilpotent_truncation(self):
        algebra = heisenberg()
        u = np.array([1.0, 0.0, 0.0])
        for t in (0.5, -3.0, 7.25):
            expected = np.eye(3) + t * ad_matrix(algebra, u)
            assert np.array_equal(_expm(t * ad_matrix(algebra, u)), expected)

    def test_inverse(self, registry, rng):
        for algebra in registry:
            for _ in range(10):
                u = rng.normal(size=algebra.dim)
                t = rng.uniform(-2, 2)
                prod = _expm(t * ad_matrix(algebra, u)) @ _expm(-t * ad_matrix(algebra, u))
                assert np.max(np.abs(prod - np.eye(algebra.dim))) < 1e-12

    def test_one_parameter_group(self, registry, rng):
        for algebra in registry:
            u = rng.normal(size=algebra.dim)
            s, t = rng.uniform(-1.5, 1.5, size=2)
            lhs = _expm((s + t) * ad_matrix(algebra, u))
            rhs = _expm(s * ad_matrix(algebra, u)) @ _expm(t * ad_matrix(algebra, u))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_preserves_killing_form_semisimple(self, rng):
        for algebra in (so3(), sl2r()):
            B = killing_form(algebra)
            for _ in range(20):
                u = rng.normal(size=3)
                t = rng.uniform(-2, 2)
                Ad = _expm(t * ad_matrix(algebra, u))
                assert np.max(np.abs(Ad.T @ B @ Ad - B)) < 1e-9


def scaled_to_norm(rng, n, norm):
    X = rng.normal(size=(n, n))
    return X * (norm / np.abs(X).sum(axis=0).max())


class TestExponential:
    """The numpy exponential behind integrate's group update."""

    def test_matches_scipy_on_the_step_range(self, rng):
        for n in range(1, 11):
            for norm in np.geomspace(1e-4, 0.5, 20):
                X = scaled_to_norm(rng, n, norm)
                reference = expm(X)
                assert np.max(np.abs(_expm(X) - reference)) <= 1e-14 * np.max(np.abs(reference))

    def test_matches_scipy_up_to_norm_20(self, rng):
        # scipy's expm itself strays from a 40-digit reference by up to 3e-12 relative on
        # random matrices of this range, so the oracle is scipy's expm at ||X||_1 / 64 <= 0.32,
        # where it matches to 1e-16, raised to the 64th power by six squarings
        for n in range(1, 11):
            for norm in np.linspace(0.5, 20.0, 20):
                X = scaled_to_norm(rng, n, norm)
                reference = expm(X / 64.0)
                for _ in range(6):
                    reference = reference @ reference
                assert np.max(np.abs(_expm(X) - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_minus_identity_keeps_the_bits_of_a_small_step(self, rng):
        # so(3): exp(K) - I = sin(t) K / t + 2 sin^2(t / 2) K^2 / t^2 with t = |u|, evaluated
        # without cancellation
        for scale in (1e-8, 1e-4, 1e-2, 0.5, 3.0, 40.0):
            u = scale * rng.normal(size=3)
            K, t = ad_matrix(so3(), u), np.linalg.norm(u)
            exact = np.sin(t) / t * K + 2.0 * (np.sin(0.5 * t) / t) ** 2 * K @ K
            F = _expm(K, minus_identity=True)
            assert np.max(np.abs(F - exact)) <= 1e-14 * np.max(np.abs(exact))

    def test_stack_equals_one_by_one(self, rng):
        # a matrix's bits do not depend on the stack it is in, scaled or not
        X = np.concatenate([scaled_to_norm(rng, 3, norm)[None]
                            for norm in (1e-3, 0.1, 1.5, 2.5, 7.0, 19.0)])
        for minus_identity in (False, True):
            stacked = _expm(X.reshape(2, 3, 3, 3), minus_identity).reshape(6, 3, 3)
            for k in range(6):
                assert stacked[k].tobytes() == _expm(X[k], minus_identity).tobytes()
            assert _expm(X[:0], minus_identity).shape == (0, 3, 3)


@given(st.integers(min_value=1, max_value=5))
def test_abelian_any_dim_trivial(n):
    algebra = abelian(n)
    assert not is_semisimple(algebra)
    assert np.array_equal(killing_form(algebra), np.zeros((n, n)))


@settings(max_examples=30)
@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
def test_so3_ad_exp_is_rotation(components):
    # the adjoint group of so(3) is orthogonal
    algebra = so3()
    Ad = _expm(ad_matrix(algebra, np.array(components)))
    assert np.max(np.abs(Ad.T @ Ad - np.eye(3))) < 1e-11


class TestLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "so3.json"
        path.write_text(json.dumps({"name": "so3", "dim": 3,
                                    "f": so3().f.tolist()}))
        algebra = load_algebra(path)
        assert algebra.name == "so3"
        assert np.array_equal(algebra.f, so3().f)

    def test_rejects_invalid(self, tmp_path):
        f = so3().f.copy()
        f[0, 0, 1] = 0.3
        f[0, 1, 0] = -0.3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "dim": 3, "f": f.tolist()}))
        with pytest.raises(ValueError):
            load_algebra(path)

    def test_rejects_dim_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "dim": 4,
                                    "f": so3().f.tolist()}))
        with pytest.raises(ShapeMismatch):
            load_algebra(path)

    def test_registry_lookup(self):
        assert get_algebra("abelian5").dim == 5
        with pytest.raises(KeyError):
            get_algebra("nope")

    def test_missing_name_or_key_is_invalid_input(self, tmp_path):
        # a LieDeformError for the CLI's exit 2, and a KeyError for callers that catch one
        with pytest.raises(InvalidInput) as info:
            get_algebra("nope")
        assert isinstance(info.value, LieDeformError) and isinstance(info.value, KeyError)
        path = tmp_path / "spec.json"
        for key in ("name", "dim", "f"):
            spec = {"name": "so3", "dim": 3, "f": so3().f.tolist()}
            del spec[key]
            path.write_text(json.dumps(spec))
            with pytest.raises(InvalidInput, match=f"missing key '{key}'"):
                load_algebra(path)


def test_immutability():
    algebra = so3()
    with pytest.raises(ValueError):
        algebra.f[0, 0, 0] = 1.0


def test_sl2r_relations():
    algebra = sl2r()
    h, e, f = np.eye(3)
    assert np.array_equal(algebra.bracket(h, e), 2.0 * e)
    assert np.array_equal(algebra.bracket(h, f), -2.0 * f)
    assert np.array_equal(algebra.bracket(e, f), h)
