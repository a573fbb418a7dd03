"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""
import numpy as np
import pytest

from liedeform.algebra import abelian, heisenberg, sl2r, so3, validate_algebra
from liedeform.cohomology import (cohomology_dimensions, delta1_scalar,
                                  delta1_vector, delta2, solve_primitive)
from liedeform.dynamics import (InertiaTensor, euler_reference, integrate)
from liedeform.phase_space import (DeformedStructure, degeneracy,
                                   lie_poisson_block, omega_matrix,
                                   poisson_tensor)
from liedeform.symmetry import isotropy_subalgebra

from conftest import random_antisymmetric, registry_algebras
from test_symmetry import group_isotropy_check

REGISTRY = registry_algebras()
RIGID_BODY = InertiaTensor.diagonal([1.0, 0.5, 1.0 / 3.0])
PI0 = np.array([1.0, 0.1, 0.0])


def report(num, description, passed):
    print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {num}: {description}"


@pytest.fixture(scope="module")
def rigid_body_runs():
    """Shared long integrations for criteria 8 and 9."""
    undeformed = DeformedStructure(so3())
    xi = np.array([0.0, 0.0, 0.3])
    deformed = DeformedStructure(so3(), delta1_scalar(so3(), xi))
    return {
        "undeformed": integrate(undeformed, RIGID_BODY, PI0, T=10.0, dt=1e-3),
        "reference": euler_reference(RIGID_BODY, PI0, T=10.0, dt=1e-3),
        "deformed": integrate(deformed, RIGID_BODY, PI0, T=10.0, dt=1e-3),
        "xi": xi,
    }


def test_criterion_1_algebra_axioms():
    worst = 0.0
    for algebra in REGISTRY:
        rep = validate_algebra(algebra.f)
        worst = max(worst, rep.antisymmetry_residual, rep.jacobi_residual)
    report(1, f"registry axioms at 1e-12 (worst residual {worst:.2e})",
           worst <= 1e-12)


def test_criterion_2_cocycle_calculus():
    rng = np.random.default_rng(2)
    worst_d2d1 = 0.0
    worst_agree = 0.0
    for algebra in REGISTRY:
        for _ in range(100):
            xi = rng.normal(size=algebra.dim)
            worst_d2d1 = max(worst_d2d1, float(np.max(np.abs(
                delta2(algebra, delta1_scalar(algebra, xi))))))
        for _ in range(20):
            theta = random_antisymmetric(rng, algebra.dim)
            D = delta1_vector(algebra, theta)
            T = delta2(algebra, theta)
            worst_agree = max(worst_agree, float(np.max(np.abs(
                D - np.transpose(T, (2, 1, 0))))))
    report(2, f"delta2 after delta1 = 0 ({worst_d2d1:.2e} < 1e-12) and the "
              f"two coboundary displays agree ({worst_agree:.2e} < 1e-14)",
           worst_d2d1 < 1e-12 and worst_agree < 1e-14)


def test_criterion_3_whitehead():
    expected = {
        "so3": (0, 0), "sl2r": (0, 0),
        "heisenberg": (2, 2), "abelian3": (3, None),
    }
    ok = True
    for name, (h2, h1) in expected.items():
        algebra = next(a for a in REGISTRY if a.name == name)
        dims = cohomology_dimensions(algebra)
        ok &= dims.h2 == h2 and (h1 is None or dims.h1 == h1)
    report(3, "Whitehead dims: so3/sl2r H1=H2=0, heisenberg H2=H1=2, "
              "abelian3 H2=3", ok)


def test_criterion_4_exactness_round_trip():
    rng = np.random.default_rng(4)
    worst = 0.0
    for algebra in (so3(), sl2r()):
        for _ in range(100):
            xi = rng.normal(size=3)
            Theta = delta1_scalar(algebra, xi)
            xi_back, _, _ = solve_primitive(algebra, Theta)
            worst = max(worst, float(np.max(np.abs(xi_back - xi))),
                        float(np.max(np.abs(delta1_scalar(algebra, xi_back) - Theta))))
    report(4, f"primitive round-trips on semisimple algebras ({worst:.2e} < 1e-10)",
           worst < 1e-10)


def test_criterion_5_darboux_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for algebra in (so3(), sl2r()):
        undeformed = DeformedStructure(algebra)
        for _ in range(100):
            xi = rng.normal(size=3)
            pi = rng.normal(size=3)
            S = DeformedStructure(algebra, delta1_scalar(algebra, xi))
            worst = max(worst, float(np.max(np.abs(
                lie_poisson_block(S, pi)
                - lie_poisson_block(undeformed, pi - xi)))))
    report(5, f"C_Theta(pi) = C_0(pi - xi) on so3 and sl2r ({worst:.2e} < 1e-12)",
           worst < 1e-12)


def _fg_structure(F, G):
    return DeformedStructure(abelian(2),
                             np.array([[0.0, F], [-F, 0.0]]),
                             np.array([[0.0, G], [-G, 0.0]]))


def test_criterion_6_degeneracy_oracle():
    rng = np.random.default_rng(6)
    ok = True
    for algebra in REGISTRY:
        n = algebra.dim
        for _ in range(200):
            S = DeformedStructure(algebra,
                                  delta1_scalar(algebra, rng.normal(size=n)),
                                  0.4 * random_antisymmetric(rng, n))
            pi = rng.normal(size=n)
            null_m = degeneracy(S, pi).nullity
            K = np.eye(n) + S.Upsilon @ lie_poisson_block(S, pi)
            s = np.linalg.svd(K, compute_uv=False)
            null_k = int(np.sum(s <= 1e-10 * max(s[0], 1.0)))
            ok &= null_m == null_k
    critical = degeneracy(_fg_structure(1.0, 1.0), np.zeros(2)).nullity == 2
    report(6, "nullity(M) = nullity(I + Upsilon C) on 200 samples per algebra; "
              "abelian R2 nullity 2 exactly at FG = 1", ok and critical)


def test_criterion_7_poisson_inversion():
    rng = np.random.default_rng(7)
    worst = 0.0
    for algebra in REGISTRY:
        n = algebra.dim
        for _ in range(50):
            S = DeformedStructure(algebra,
                                  delta1_scalar(algebra, rng.normal(size=n)),
                                  0.4 * random_antisymmetric(rng, n))
            pi = rng.normal(size=n)
            if degeneracy(S, pi).nullity:
                continue
            Pi = poisson_tensor(S, pi)
            worst = max(worst, float(np.max(np.abs(
                Pi @ omega_matrix(S, pi) - np.eye(2 * n)))))
    F = G = 0.5
    Pi = poisson_tensor(_fg_structure(F, G), np.zeros(2))
    oracle = np.linalg.inv(omega_matrix(_fg_structure(F, G), np.zeros(2)))
    magnitudes = (abs(abs(Pi[2, 3]) - F / (1 - F * G)) < 1e-12
                  and abs(abs(Pi[0, 1]) - G / (1 - F * G)) < 1e-12
                  and np.max(np.abs(Pi - oracle)) < 1e-12)
    report(7, f"Poisson inversion ({worst:.2e} < 1e-10) and abelian bracket "
              "magnitudes F/(1-FG), G/(1-FG)", worst < 1e-10 and magnitudes)


def test_criterion_8_euler_anchor(rigid_body_runs):
    err = float(np.max(np.abs(rigid_body_runs["undeformed"].pis
                              - rigid_body_runs["reference"].pis)))
    report(8, f"undeformed so3 flow matches cross-product Euler oracle "
              f"pointwise ({err:.2e} < 1e-12, T=10, dt=1e-3)", err < 1e-12)


def test_criterion_9_conservation_and_order(rigid_body_runs):
    energy = rigid_body_runs["undeformed"].drift("energy")
    xi = rigid_body_runs["xi"]
    shifted = np.sum((rigid_body_runs["deformed"].pis - xi) ** 2, axis=1)
    casimir = float(np.max(np.abs(shifted - shifted[0])))
    # convergence factor measured above the roundoff floor
    S = DeformedStructure(so3())
    coarse = integrate(S, RIGID_BODY, PI0, T=10.0, dt=0.05).drift("energy")
    fine = integrate(S, RIGID_BODY, PI0, T=10.0, dt=0.025).drift("energy")
    factor = coarse / fine
    report(9, f"energy drift {energy:.2e} < 1e-8, shifted-Casimir drift "
              f"{casimir:.2e} < 1e-8, halving-dt factor {factor:.1f} in [12, 20]",
           energy < 1e-8 and casimir < 1e-8 and 12.0 <= factor <= 20.0)


def test_criterion_10_isotropy():
    Theta = delta1_scalar(so3(), [0.0, 0.0, 1.0])
    Upsilon = np.zeros((3, 3))
    sub = isotropy_subalgebra(so3(), Theta, Upsilon)
    axis_ok = (sub.dimension == 1
               and np.allclose(np.abs(sub.basis[0]), [0.0, 0.0, 1.0], atol=1e-12)
               and sub.closure_residual < 1e-9)
    worst = max(group_isotropy_check(so3(), sub.basis[0], t, Theta, Upsilon)
                for t in np.linspace(-5.0, 5.0, 21))
    report(10, f"isotropy of Theta from xi=(0,0,1) is span(e3); group residual "
               f"{worst:.2e} < 1e-8 for t in [-5, 5]",
           axis_ok and worst < 1e-8)
