from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import polar

from liedeform import dynamics
from liedeform.algebra import (LieAlgebra, abelian, ad_matrix, is_semisimple, killing_form,
                               sl2r, so3)
from liedeform.cohomology import delta1_scalar, solve_primitive
from liedeform.dynamics import (InertiaTensor, _rk4_step, euler_reference, hamiltonian,
                                hamiltonian_vector_field, integrate,
                                so3_vector_representation)
from liedeform.errors import DegenerateForm, StepRejected
from liedeform.phase_space import (RANK_TOL, DeformedStructure, lie_poisson_block,
                                   load_deformation, omega_matrix)

GOLDEN = Path(__file__).parent / "golden"

RIGID_BODY = InertiaTensor.diagonal([1.0, 0.5, 1.0 / 3.0])


def fg_structure(F, G):
    return DeformedStructure(abelian(2),
                             np.array([[0.0, F], [-F, 0.0]]),
                             np.array([[0.0, G], [-G, 0.0]]))


class TestInertiaTensor:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            InertiaTensor(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            InertiaTensor.diagonal([1.0, -0.5])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            InertiaTensor(np.zeros((2, 3)))

    @pytest.mark.parametrize("I_inv, message", [
        ([[1.0, np.nan], [np.nan, 1.0]], "inertia has a non-finite entry nan at (0, 1)"),
        ([[np.inf, 0.0], [0.0, 1.0]], "inertia has a non-finite entry inf at (0, 0)"),
        ([[1.0, 0.0], [0.0, -np.inf]], "inertia has a non-finite entry -inf at (1, 1)"),
        # finite, but the asymmetry overflows to inf: rejected without a warning
        ([[1.0, 1e308], [-1e308, 1.0]], "inertia must be symmetric"),
    ])
    def test_rejects_non_finite(self, I_inv, message):
        with pytest.raises(ValueError) as info:
            InertiaTensor(np.array(I_inv))
        assert str(info.value) == message


class TestHamiltonian:
    def test_zero_momentum(self):
        assert hamiltonian(RIGID_BODY, np.zeros(3)) == 0.0

    def test_unit_momentum(self):
        assert hamiltonian(InertiaTensor.identity(3), [1.0, 0.0, 0.0]) == 0.5

    def test_mixed(self):
        # 0.5 * (1 + 1/2 + 1/3)
        value = hamiltonian(RIGID_BODY, [1.0, 1.0, 1.0])
        assert abs(value - 11.0 / 12.0) < 1e-15

    def test_positive(self, rng):
        for _ in range(20):
            assert hamiltonian(RIGID_BODY, rng.normal(size=3)) > 0.0


class TestHamiltonianVectorField:
    def test_principal_axis_equilibrium(self):
        S = DeformedStructure(so3())
        eta, pidot = hamiltonian_vector_field(S, RIGID_BODY, [0.0, 0.0, 1.0])
        assert np.allclose(pidot, np.zeros(3), atol=1e-15)
        assert np.allclose(eta, [0.0, 0.0, 1.0 / 3.0], atol=1e-15)

    def test_cross_product_oracle(self, rng):
        S = DeformedStructure(so3())
        for _ in range(20):
            pi = rng.normal(size=3)
            _, pidot = hamiltonian_vector_field(S, RIGID_BODY, pi)
            assert np.allclose(pidot, np.cross(pi, RIGID_BODY.I_inv @ pi),
                               atol=1e-14)

    def test_magnetic_precession(self, rng):
        # abelian with Theta only: pidot = -Theta pi
        Theta = np.array([[0.0, 0.7], [-0.7, 0.0]])
        S = DeformedStructure(abelian(2), Theta)
        inertia = InertiaTensor.identity(2)
        for _ in range(10):
            pi = rng.normal(size=2)
            eta, pidot = hamiltonian_vector_field(S, inertia, pi)
            assert np.allclose(pidot, -Theta @ pi, atol=1e-14)
            assert np.allclose(eta, pi, atol=1e-14)

    def test_reduced_matches_full_solve(self, registry, rng):
        # the reduced N x N system agrees with solving M zeta = -dH directly
        for algebra in registry:
            n = algebra.dim
            Theta = delta1_scalar(algebra, rng.normal(size=n))
            U = 0.3 * (lambda A: A - A.T)(rng.normal(size=(n, n)))
            S = DeformedStructure(algebra, Theta, U)
            inertia = InertiaTensor(np.eye(n) + 0.1 * np.diag(rng.uniform(0, 1, n)))
            for _ in range(20):
                pi = rng.normal(size=n)
                M = omega_matrix(S, pi)
                if np.min(np.abs(np.linalg.svd(M, compute_uv=False))) < 1e-8:
                    continue
                dH = np.concatenate([np.zeros(n), inertia.I_inv @ pi])
                zeta = np.linalg.solve(M, -dH)
                eta, pidot = hamiltonian_vector_field(S, inertia, pi)
                assert np.max(np.abs(eta - zeta[:n])) < 1e-10
                assert np.max(np.abs(pidot - zeta[n:])) < 1e-10

    def test_degenerate_raises(self):
        S = fg_structure(1.0, 1.0)
        with pytest.raises(DegenerateForm):
            hamiltonian_vector_field(S, InertiaTensor.identity(2), np.zeros(2))


def always_svd_field(structure, inertia, pi):
    """hamiltonian_vector_field with Upsilon != 0, deciding every call by the SVD rule."""
    C = lie_poisson_block(structure, pi)
    velocity = inertia.I_inv @ pi
    K = np.eye(structure.algebra.dim) + C @ structure.Upsilon
    s = np.linalg.svd(K, compute_uv=False)
    if s[-1] <= RANK_TOL * max(s[0], 1.0):
        raise DegenerateForm("two-form degenerate at this momentum")
    pidot = np.linalg.solve(K, -C @ velocity)
    return velocity + structure.Upsilon @ pidot, pidot


def verdict(field, *args):
    """None for a degenerate point, else the bytes of (eta, pidot)."""
    try:
        eta, pidot = field(*args)
    except DegenerateForm:
        return None
    return eta.tobytes(), pidot.tobytes()


def abelian2_reproducer(eps):
    Theta = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return DeformedStructure(abelian(2), Theta, (1.0 - eps) * Theta)


class TestNondegeneracyCertificate:
    """||C Upsilon||_F <= 0.9 replaces the SVD of K = I + C Upsilon without changing a verdict."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_same_as_always_svd_on_registry(self, registry, data):
        algebra = data.draw(st.sampled_from(registry))
        n = algebra.dim
        vector = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
        square = st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)
        pi = np.array(data.draw(vector))
        if algebra.f.any():
            Theta = delta1_scalar(algebra, np.array(data.draw(vector)))
        else:  # every antisymmetric Theta is a cocycle on an abelian algebra
            A = np.array(data.draw(square)).reshape(n, n)
            Theta = A - A.T
        A = np.array(data.draw(square)).reshape(n, n)
        Upsilon = A - A.T
        norm = np.linalg.norm(lie_poisson_block(DeformedStructure(algebra, Theta), pi) @ Upsilon)
        if norm > 0:  # ||C Upsilon||_F on either side of 0.9
            Upsilon *= data.draw(st.floats(0.05, 3.0)) / norm
        structure = DeformedStructure(algebra, Theta, Upsilon)
        inertia = InertiaTensor.diagonal(data.draw(
            st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n)))
        assert (verdict(hamiltonian_vector_field, structure, inertia, pi)
                == verdict(always_svd_field, structure, inertia, pi))

    def test_abelian2_epsilon_family(self):
        # ||C Upsilon||_F = sqrt(2) |1 - eps|: the certificate holds for eps in [0.364, 1.636]
        # and the SVD rule's cut lies near eps = 1e-10
        verdicts = []
        for eps in (0.0, 1e-12, 1e-10, 1e-8, 0.3, 0.36, 0.37, 0.5, 0.9, 1.1, 1.6, 1.7, 2.0):
            args = (abelian2_reproducer(eps), InertiaTensor.identity(2), np.zeros(2))
            verdicts.append(verdict(hamiltonian_vector_field, *args))
            assert verdicts[-1] == verdict(always_svd_field, *args)
        assert verdicts[0] is None and verdicts[-1] is not None

    def test_svd_calls_inside_integrate(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        # the simulate_sl2r_upsilon golden: every RHS call is certified
        structure = load_deformation(GOLDEN / "sl2r-upsilon.json", sl2r())
        traj = integrate(structure, InertiaTensor.diagonal([1.0, 2.0, 2.0]), [0.3, -0.5, 0.8],
                         T=2.0, dt=0.05)
        assert traj.complete and calls == []
        # ||C Upsilon||_F = sqrt(2) (1 - 1e-10): outside the certificate
        integrate(abelian2_reproducer(1e-10), InertiaTensor.identity(2), [0.0, 0.0], T=0.1, dt=0.01)
        assert len(calls) >= 1

    def test_nan_momentum_raises_linalg_error(self):
        structure = load_deformation(GOLDEN / "sl2r-upsilon.json", sl2r())
        with pytest.raises(np.linalg.LinAlgError):
            hamiltonian_vector_field(structure, InertiaTensor.identity(3), [np.nan, 0.0, 0.0])

    def test_radius_clears_the_rank_cut(self):
        # sigma(K) lies in [1 - r, 1 + r], and the SVD rule fires only at
        # sigma_min <= RANK_TOL * max(sigma_max, 1) <= RANK_TOL * (1 + r)
        r = np.sqrt(dynamics._CERTIFIED_SQ)
        assert (1.0 + r) * RANK_TOL < 1e-6 * (1.0 - r)


class TestIntegrate:
    def test_free_rigid_body_conservation(self):
        S = DeformedStructure(so3())
        traj = integrate(S, RIGID_BODY, [1.0, 0.1, 0.0], T=10.0, dt=1e-3)
        assert traj.drift("energy") < 1e-10
        norms = np.sum(traj.pis ** 2, axis=1)
        assert np.max(np.abs(norms - norms[0])) < 1e-10

    def test_matches_euler_reference(self):
        pi0 = [1.0, 0.1, 0.0]
        S = DeformedStructure(so3())
        traj = integrate(S, RIGID_BODY, pi0, T=10.0, dt=1e-3)
        ref = euler_reference(RIGID_BODY, pi0, T=10.0, dt=1e-3)
        assert np.max(np.abs(traj.pis - ref.pis)) < 1e-12

    def test_shifted_casimir_conserved(self):
        xi = np.array([0.0, 0.0, 0.3])
        S = DeformedStructure(so3(), delta1_scalar(so3(), xi))
        traj = integrate(S, RIGID_BODY, [1.0, 0.1, 0.0], T=10.0, dt=1e-3)
        shifted = np.sum((traj.pis - xi) ** 2, axis=1)
        assert np.max(np.abs(shifted - shifted[0])) < 1e-10
        assert traj.drift("casimir") < 1e-10

    def test_shift_matches_undeformed_flow(self):
        # coadjoint motion of sigma = pi - xi: the deformed flow equals the
        # undeformed flow started at pi0 - xi, shifted back
        xi = np.array([0.0, 0.0, 0.3])
        S = DeformedStructure(so3(), delta1_scalar(so3(), xi))
        pi0 = np.array([1.0, 0.1, 0.0])
        traj = integrate(S, RIGID_BODY, pi0, T=2.0, dt=1e-3)
        # same vector field in sigma only when the Hamiltonian is the same
        # function of pi, so compare against the direct reduced equation
        def rhs(pi):
            C = np.einsum('m,mab->ab', pi - xi, so3().f)
            return -C @ (RIGID_BODY.I_inv @ pi)
        pi = pi0.copy()
        for _ in range(2000):
            k1 = rhs(pi)
            k2 = rhs(pi + 5e-4 * k1)
            k3 = rhs(pi + 5e-4 * k2)
            k4 = rhs(pi + 1e-3 * k3)
            pi = pi + (1e-3 / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(traj.pis[-1] - pi)) < 1e-11

    def test_abelian_circle(self):
        # closed-form oracle: rotation at rate F / (1 - F G)
        F = G = 0.5
        S = fg_structure(F, G)
        traj = integrate(S, InertiaTensor.identity(2), [1.0, 0.0], T=10.0, dt=1e-3)
        w = F / (1.0 - F * G)
        exact = np.stack([np.cos(w * traj.times), np.sin(w * traj.times)], axis=1)
        assert np.max(np.abs(traj.pis - exact)) < 1e-10
        assert traj.drift("energy") < 1e-10

    def test_degenerate_start_partial(self):
        S = fg_structure(1.0, 1.0)
        traj = integrate(S, InertiaTensor.identity(2), [1.0, 0.0], T=1.0, dt=0.1)
        assert traj.degenerate_at == pytest.approx(0.0)
        assert not traj.complete
        assert len(traj.times) == 1

    def test_non_finite_rejected(self):
        # grotesque step size blows the quadratic vector field up; the overflow is reported
        # as StepRejected, not as a RuntimeWarning (an error under the test configuration)
        S = DeformedStructure(so3())
        with pytest.raises(StepRejected):
            integrate(S, RIGID_BODY, [1.0, 0.1, 0.0], T=1e8, dt=1e6)
        # with a representation the state is checked before g is projected
        for rep in (None, so3_vector_representation()):
            with pytest.raises(StepRejected):
                integrate(S, InertiaTensor.diagonal([1.0, 2.0, 3.0]),
                          [1e200, 3e200, -2e200], T=1.0, dt=0.5, rep=rep)

    def test_convergence_order(self):
        S = DeformedStructure(so3())
        drift = {}
        for dt in (0.05, 0.025):
            traj = integrate(S, RIGID_BODY, [1.0, 0.1, 0.0], T=10.0, dt=dt)
            drift[dt] = traj.drift("energy")
        factor = drift[0.05] / drift[0.025]
        assert 12.0 <= factor <= 20.0

    def test_group_reconstruction(self):
        S = DeformedStructure(so3())
        traj = integrate(S, RIGID_BODY, [1.0, 0.1, 0.0], T=10.0, dt=1e-2,
                         rep=so3_vector_representation())
        assert traj.gs is not None
        defects = [np.max(np.abs(g.T @ g - np.eye(3))) for g in traj.gs]
        assert max(defects) < 1e-6

    def test_extra_monitors(self):
        S = DeformedStructure(so3())
        traj = integrate(S, RIGID_BODY, [0.0, 0.0, 1.0], T=0.5, dt=1e-2,
                         extra_monitors={"axis3": np.array([0.0, 0.0, 1.0])})
        assert np.allclose(traj.monitors["axis3"], 1.0, atol=1e-12)

    def test_monitor_lengths(self):
        S = DeformedStructure(so3())
        traj = integrate(S, RIGID_BODY, [1.0, 0.1, 0.0], T=0.3, dt=0.1)
        assert len(traj.times) == 4
        for channel in traj.monitors.values():
            assert len(channel) == 4


def reference_integrate(structure, inertia, pi0, steps, dt, rep=None):
    """RK4 written the way integrate stepped before its flat state.

    C(pi) by einsum, the Upsilon = 0 test on max |Upsilon|, pi and g stepped as
    separate RK4 sums, then polar reprojection of g.  Returns (pis, gs).
    """
    f, Theta, U = structure.algebra.f, structure.Theta, structure.Upsilon
    n = len(f)

    def field(p):
        C = np.einsum('m,mab->ab', p, f) + Theta
        v = inertia.I_inv @ p
        if np.max(np.abs(U), initial=0.0) == 0.0:
            return v, -C @ v
        pidot = np.linalg.solve(np.eye(n) + C @ U, -C @ v)
        return v + U @ pidot, pidot

    def stage(p, g):
        eta, pidot = field(p)
        return pidot, g @ np.einsum('i,ijk->jk', eta, rep)

    pi = np.asarray(pi0, float)
    g = None if rep is None else np.eye(rep.shape[1])
    pis, gs = [pi], [g]
    for _ in range(steps):
        if rep is None:
            pi = _rk4_step(lambda p: field(p)[1], pi, dt)
        else:
            k1 = stage(pi, g)
            k2 = stage(pi + 0.5 * dt * k1[0], g + 0.5 * dt * k1[1])
            k3 = stage(pi + 0.5 * dt * k2[0], g + 0.5 * dt * k2[1])
            k4 = stage(pi + dt * k3[0], g + dt * k3[1])
            pi = pi + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            g = polar(g + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))[0]
        pis.append(pi)
        gs.append(g)
    return np.array(pis), None if rep is None else np.array(gs)


def adjoint_representation(algebra):
    return np.array([ad_matrix(algebra, e) for e in np.eye(algebra.dim)])


def conjugated(algebra, P):
    """The same algebra in the basis e'_a = P[d, a] e_d."""
    f = np.einsum('mc,cde,da,eb->mab', np.linalg.inv(P), algebra.f, P, P)
    return LieAlgebra.from_structure_constants(algebra.name + "'", f)


def random_case(algebra, rng, with_upsilon):
    n = algebra.dim
    Upsilon = 0.3 * (lambda A: A - A.T)(rng.normal(size=(n, n))) if with_upsilon else None
    structure = DeformedStructure(algebra, delta1_scalar(algebra, rng.normal(size=n)), Upsilon)
    inertia = InertiaTensor(np.eye(n) + 0.2 * np.diag(rng.uniform(0, 1, n)))
    return structure, inertia, rng.normal(size=n)


class TestFlatState:
    @pytest.mark.parametrize("with_rep", [False, True])
    def test_four_vector_field_calls_per_step(self, monkeypatch, with_rep):
        calls = []

        def counted(*args):
            calls.append(1)
            return hamiltonian_vector_field(*args)

        monkeypatch.setattr(dynamics, "hamiltonian_vector_field", counted)
        rep = so3_vector_representation() if with_rep else None
        traj = integrate(DeformedStructure(so3()), RIGID_BODY, [1.0, 0.1, 0.0], T=0.1, dt=0.01,
                         rep=rep)
        assert len(traj.times) == 11
        assert len(calls) == 4 * 10

    @pytest.mark.parametrize("with_upsilon", [False, True])
    def test_bitwise_equal_to_reference_on_registry(self, registry, rng, with_upsilon):
        for algebra in registry:
            structure, inertia, pi0 = random_case(algebra, rng, with_upsilon)
            reps = [None, adjoint_representation(algebra)]
            if algebra.name == "so3":
                reps.append(so3_vector_representation())
            for rep in reps:
                traj = integrate(structure, inertia, pi0, T=0.5, dt=0.01, rep=rep)
                assert traj.complete
                pis, gs = reference_integrate(structure, inertia, pi0, 50, 0.01, rep)
                assert np.ascontiguousarray(traj.pis).tobytes() == pis.tobytes()
                if rep is None:
                    assert traj.gs is None
                else:
                    assert np.ascontiguousarray(traj.gs).tobytes() == gs.tobytes()
                energy = np.array([hamiltonian(inertia, p) for p in pis])
                assert traj.monitors["energy"].tobytes() == energy.tobytes()

    def test_monitor_channels_bitwise_equal_to_per_row_formulas(self, registry, rng):
        # the stacked 1 x N matmuls must give the bytes of the per-row products
        for algebra in registry:
            n = algebra.dim
            structure, inertia, pi0 = random_case(algebra, rng, with_upsilon=False)
            vecs = {"random": rng.normal(size=n), "axis": list(np.eye(n)[-1])}
            for rep in (None, adjoint_representation(algebra)):
                traj = integrate(structure, inertia, pi0, T=0.5, dt=0.01, rep=rep,
                                 extra_monitors=vecs)
                for name, vec in vecs.items():
                    expected = np.array([float(np.dot(vec, p)) for p in traj.pis])
                    assert traj.monitors[name].tobytes() == expected.tobytes()
                if not is_semisimple(algebra):
                    assert "casimir" not in traj.monitors
                    continue
                xi = solve_primitive(algebra, structure.Theta)[0]
                B_inv = np.linalg.inv(killing_form(algebra))
                expected = np.array([float((p - xi) @ B_inv @ (p - xi)) for p in traj.pis])
                assert traj.monitors["casimir"].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("make", [so3, sl2r])
    @pytest.mark.parametrize("with_upsilon", [False, True])
    def test_conjugated_basis_agrees_with_reference(self, rng, make, with_upsilon):
        # C(pi) as one matmul sums in another order than einsum off the registry bases
        P = np.eye(3) + 0.4 * rng.normal(size=(3, 3))
        algebra = conjugated(make(), P)
        structure, inertia, pi0 = random_case(algebra, rng, with_upsilon)
        rep = adjoint_representation(algebra)
        for r in (None, rep):
            traj = integrate(structure, inertia, pi0, T=2.0, dt=0.01, rep=r)
            pis, gs = reference_integrate(structure, inertia, pi0, 200, 0.01, r)
            assert np.max(np.abs(traj.pis - pis)) <= 1e-13 * np.max(np.abs(pis))
            if r is not None:
                assert np.max(np.abs(traj.gs - gs)) <= 1e-13 * np.max(np.abs(gs))


class TestEulerReference:
    def test_equilibrium_constant(self):
        traj = euler_reference(RIGID_BODY, [0.0, 0.0, 1.0], T=1.0, dt=1e-2)
        assert np.max(np.abs(traj.pis - [0.0, 0.0, 1.0])) < 1e-14

    def test_identity_inertia_free(self):
        traj = euler_reference(InertiaTensor.identity(3), [0.3, -0.2, 0.9],
                               T=1.0, dt=1e-2)
        assert np.max(np.abs(traj.pis - traj.pis[0])) < 1e-14

    def test_requires_three_dims(self):
        with pytest.raises(ValueError):
            euler_reference(InertiaTensor.identity(2), [1.0, 0.0], T=1.0, dt=0.1)

    def test_bitwise_equal_to_np_cross_form(self, rng):
        # the written-out cross product keeps np.cross's roundings, signed zeros included
        for case in range(20):
            inertia = InertiaTensor.diagonal(rng.uniform(0.2, 5.0, size=3))
            pi = rng.normal(size=3) * np.exp(rng.normal(scale=1.5))
            pi[case % 3] = -0.0 if case % 2 else 0.0
            traj = euler_reference(inertia, pi, T=0.05, dt=1e-3)
            for k in range(50):
                pi = _rk4_step(lambda p: np.cross(p, inertia.I_inv @ p), pi, 1e-3)
                assert traj.pis[k + 1].tobytes() == pi.tobytes()
