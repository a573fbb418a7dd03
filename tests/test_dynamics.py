import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from liedeform import dynamics
from liedeform.algebra import (LieAlgebra, abelian, ad_matrix, get_algebra, is_semisimple,
                               killing_form, sl2r, so3)
from liedeform.cohomology import delta1_scalar, solve_primitive
from liedeform.dynamics import (InertiaTensor, _rk4_step, euler_reference, hamiltonian,
                                hamiltonian_vector_field, integrate,
                                so3_vector_representation)
from liedeform.errors import DegenerateForm, InvalidValue, StepRejected
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

    def test_symmetry_is_relative_to_the_scale_of_the_inertia(self):
        A = np.array([[1e6, 2.0], [2.0 + 1e-7, 3e6]])  # asymmetry 1e-7 on entries of 3e6
        assert np.array_equal(InertiaTensor(A).I_inv, A)
        with pytest.raises(ValueError, match="inertia must be symmetric"):
            InertiaTensor(np.array([[1.0, 2.0], [2.0 + 1e-11, 3.0]]))

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

    @pytest.mark.parametrize("name", ["heisenberg", "abelian2", "se2", "so3", "sl2r"])
    def test_bytes_of_the_plain_formulas(self, rng, name):
        # Theta = 0 (or -0) on these bases and momenta with +-0 components give exact zeros,
        # and -(C v) would flip their signs
        algebra = get_algebra(name)
        n = algebra.dim
        inertia = InertiaTensor.diagonal(rng.uniform(0.5, 2.0, n))
        U = 0.3 * (lambda A: A - A.T)(rng.normal(size=(n, n)))
        momenta = [np.array(p, float) for p in itertools.product((-1, -0.0, 0, 1, 2), repeat=n)]
        momenta += list(rng.normal(size=(20, n)))
        zeros = 0
        for Theta, Upsilon in itertools.product((None, np.full((n, n), -0.0)), (None, U)):
            S = DeformedStructure(algebra, Theta, Upsilon)
            for pi in momenta:
                C = (pi @ algebra.f.reshape(n, n * n)).reshape(n, n) + S.Theta
                v = inertia.I_inv @ pi
                if Upsilon is None:
                    eta, pidot = v, (-C) @ v
                else:
                    pidot = np.linalg.solve(np.eye(n) + C @ U, (-C) @ v)
                    eta = v + U @ pidot
                zeros += np.count_nonzero(pidot == 0)
                got = hamiltonian_vector_field(S, inertia, pi)
                assert got[0].tobytes() == eta.tobytes()
                assert got[1].tobytes() == pidot.tobytes()
        assert zeros > 0

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

    def test_nan_momentum_raises_invalid_value(self):
        # the NaN fails the certificate, and _nullity rejects the K before LAPACK
        structure = load_deformation(GOLDEN / "sl2r-upsilon.json", sl2r())
        message = r"^K = I \+ C\(pi\) Upsilon has a non-finite entry$"
        with pytest.raises(InvalidValue, match=message):
            hamiltonian_vector_field(structure, InertiaTensor.identity(3), [np.nan, 0.0, 0.0])

    def test_radius_clears_the_rank_cut(self):
        # sigma(K) lies in [1 - r, 1 + r], and the SVD rule fires only at
        # sigma_min <= RANK_TOL * max(sigma_max, 1) <= RANK_TOL * (1 + r)
        r = np.sqrt(dynamics._CERTIFIED_SQ)
        assert (1.0 + r) * RANK_TOL < 1e-6 * (1.0 - r)


class TestSolveBinding:
    def test_bytes_of_np_linalg_solve(self, rng):
        # well-conditioned K, and K with sigma_min / sigma_max = 2 RANK_TOL, just above the cut
        for n in range(1, 11):
            for cond in (1.0, 10.0, 1e4, 0.5 / RANK_TOL):
                Q1, Q2 = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
                K = (Q1 * np.geomspace(1.0, 1.0 / cond, n)) @ Q2.T
                for scale in (1e-3, 1.0, 1e3):
                    b = scale * rng.normal(size=n)
                    assert dynamics._solve(K, b).tobytes() == np.linalg.solve(K, b).tobytes()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_momentum_rejected(self, bad):
        # at t = 0, before a step is taken, and without a RuntimeWarning
        for rep in (None, so3_vector_representation()):
            with pytest.raises(ValueError, match=f"^pi0 has a non-finite entry {bad} at 0$"):
                integrate(DeformedStructure(so3()), RIGID_BODY, [bad, 0.0, 0.0], T=1.0, dt=0.05,
                          rep=rep)

    def test_non_finite_rejected(self):
        # grotesque step size blows the quadratic vector field up; the overflow is reported
        # as StepRejected, not as a RuntimeWarning (an error under the test configuration)
        S = DeformedStructure(so3())
        with pytest.raises(StepRejected):
            integrate(S, RIGID_BODY, [1.0, 0.1, 0.0], T=1e8, dt=1e6)
        # with a representation too: no group element is formed from the non-finite stages
        for rep in (None, so3_vector_representation()):
            with pytest.raises(StepRejected):
                integrate(S, InertiaTensor.diagonal([1.0, 2.0, 3.0]),
                          [1e200, 3e200, -2e200], T=1.0, dt=0.5, rep=rep)

    @pytest.mark.parametrize("T, dt, message", [
        (1.0, 0.0, "dt must be positive and finite, got 0.0"),
        (1.0, -0.1, "dt must be positive and finite, got -0.1"),
        (1.0, np.nan, "dt must be positive and finite, got nan"),
        (1.0, np.inf, "dt must be positive and finite, got inf"),
        (-1.0, 0.1, "T must be non-negative and finite, got -1.0"),
        (np.inf, 0.1, "T must be non-negative and finite, got inf"),
        (np.nan, 0.1, "T must be non-negative and finite, got nan"),
        (1.0, 1e-320, "T / dt must be finite, got T = 1.0, dt = 1e-320"),
    ])
    def test_rejects_step_and_time_no_run_can_take(self, T, dt, message):
        for run in (lambda: integrate(DeformedStructure(so3()), RIGID_BODY, [1.0, 0.1, 0.0], T, dt),
                    lambda: euler_reference(RIGID_BODY, [1.0, 0.1, 0.0], T, dt)):
            with pytest.raises(ValueError) as info:
                run()
            assert str(info.value) == message

    def test_zero_time_keeps_the_initial_state(self):
        traj = integrate(DeformedStructure(so3()), RIGID_BODY, [1.0, 0.1, 0.0], T=0.0, dt=0.1)
        assert traj.times.tolist() == [0.0] and traj.pis.tolist() == [[1.0, 0.1, 0.0]]

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

    def test_so3_vector_representation_is_the_adjoint(self):
        # rho(e_i) = ad(e_i) byte for byte, the sign of every zero included
        assert so3_vector_representation().tobytes() == adjoint_representation(so3()).tobytes()

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
    """RK4 on pi written the way integrate stepped before its flat state, and CF4 on g.

    C(pi) by einsum, the Upsilon = 0 test on max |Upsilon|, pi stepped as one RK4 sum,
    then g advanced by the commutator-free CF4 update from the four stage velocities,
    with einsum generators and scipy.linalg.expm.  Returns (pis, gs).
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

    pi = np.asarray(pi0, float)
    g = None if rep is None else np.eye(rep.shape[1])
    pis, gs = [pi], [g]
    for _ in range(steps):
        if rep is None:
            pi = _rk4_step(lambda p: field(p)[1], pi, dt)
        else:
            e1, k1 = field(pi)
            e2, k2 = field(pi + 0.5 * dt * k1)
            e3, k3 = field(pi + 0.5 * dt * k2)
            e4, k4 = field(pi + dt * k3)
            pi = pi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            a = e1 / 4 + e2 / 6 + e3 / 6 - e4 / 12
            b = -e1 / 12 + e2 / 6 + e3 / 6 + e4 / 4
            g = (g @ expm(dt * np.einsum('i,ijk->jk', a, rep))
                 @ expm(dt * np.einsum('i,ijk->jk', b, rep)))
        pis.append(pi)
        gs.append(g)
    return np.array(pis), None if rep is None else np.array(gs)


def assert_close_gs(gs, reference):
    """Reconstructed g within 1e-13 max|g| of an independently evaluated reference."""
    assert gs.shape == reference.shape
    assert np.max(np.abs(gs - reference)) <= 1e-13 * np.max(np.abs(reference))


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

    @pytest.mark.parametrize("with_rep", [False, True])
    def test_no_np_linalg_solve_on_the_step(self, monkeypatch, rng, with_rep):
        # the stepping path calls LAPACK's gufunc itself, not np.linalg.solve's wrapper
        structure, inertia, pi0 = random_case(sl2r(), rng, with_upsilon=True)
        rep = adjoint_representation(sl2r()) if with_rep else None
        pis, gs = reference_integrate(structure, inertia, pi0, 50, 0.01, rep)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called while stepping")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        traj = integrate(structure, inertia, pi0, T=0.5, dt=0.01, rep=rep)
        assert traj.complete
        assert np.ascontiguousarray(traj.pis).tobytes() == pis.tobytes()
        if rep is not None:
            assert_close_gs(traj.gs, gs)

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
                    assert_close_gs(traj.gs, gs)
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


def sl2r_defining_representation():
    """rho(h) = diag(1, -1), rho(e) = E12, rho(f) = E21 in the sl2r registry basis (h, e, f)."""
    rep = np.zeros((3, 2, 2))
    rep[0] = np.diag([1.0, -1.0])
    rep[1][0, 1] = rep[2][1, 0] = 1.0
    return rep


def heisenberg_representation():
    """rho(e1) = E12, rho(e2) = E23, rho(e3) = E13: 3 x 3 strictly upper triangular."""
    rep = np.zeros((3, 3, 3))
    rep[0][0, 1] = rep[1][1, 2] = rep[2][0, 2] = 1.0
    return rep


def se2_representation():
    """Homogeneous 3 x 3 generators: translations E13, E23 and the rotation E21 - E12."""
    rep = np.zeros((3, 3, 3))
    rep[0][0, 2] = rep[1][1, 2] = rep[2][1, 0] = 1.0
    rep[2][0, 1] = -1.0
    return rep


class TestGroupReconstruction:
    """CF4 on g: the closed forms of constant eta, order 4, and the group it stays in."""

    def test_representations_are_homomorphisms(self):
        for algebra, rep in ((sl2r(), sl2r_defining_representation()),
                             (get_algebra("heisenberg"), heisenberg_representation()),
                             (get_algebra("se2"), se2_representation())):
            for a, b in itertools.product(range(3), repeat=2):
                bracket = np.einsum('m,mij->ij', algebra.f[:, a, b], rep)
                assert np.array_equal(rep[a] @ rep[b] - rep[b] @ rep[a], bracket)

    @pytest.mark.parametrize("Upsilon", [None, [[0.0, 0.25, 0.0], [-0.25, 0.0, 0.0],
                                                [0.0, 0.0, 0.0]]])
    def test_sl2r_equilibrium_closed_form(self, Upsilon):
        # pi0 = (1, 0, 0) is an equilibrium with eta = h: g(t) = diag(e^t, e^-t), not a
        # rotation, so a projection onto O(2) would return I
        structure = DeformedStructure(sl2r(), None, Upsilon)
        traj = integrate(structure, InertiaTensor.identity(3), [1.0, 0.0, 0.0], T=1.0,
                         dt=0.01, rep=sl2r_defining_representation())
        assert traj.complete and traj.gs.shape == (101, 2, 2)
        exact = np.zeros((101, 2, 2))
        exact[:, 0, 0], exact[:, 1, 1] = np.exp(traj.times), np.exp(-traj.times)
        assert np.max(np.abs(traj.gs - exact)) <= 1e-12
        assert np.max(np.abs(traj.gs[-1] - np.diag([np.e, 1.0 / np.e]))) <= 1e-12

    def test_heisenberg_constant_eta_closed_form(self):
        # with pi_3 = 0, C(pi) = 0: eta = (a, b, 0) stays constant and
        # exp(t (a E12 + b E23)) = I + t (a E12 + b E23) + t^2 a b / 2 E13
        a, b = 0.7, -1.3
        traj = integrate(DeformedStructure(get_algebra("heisenberg")),
                         InertiaTensor.identity(3), [a, b, 0.0], T=2.0, dt=0.01,
                         rep=heisenberg_representation())
        t = traj.times
        exact = np.broadcast_to(np.eye(3), (len(t), 3, 3)).copy()
        exact[:, 0, 1], exact[:, 1, 2], exact[:, 0, 2] = a * t, b * t, 0.5 * a * b * t ** 2
        assert np.max(np.abs(traj.gs - exact)) <= 1e-12
        assert np.all(np.tril(traj.gs, -1) == 0.0)

    @pytest.mark.parametrize("pi0, inertia", [([0.4, -0.9, 0.0], [1.0, 1.0, 2.0]),
                                              ([0.0, 0.0, 1.5], [1.0, 1.0, 2.0])])
    def test_se2_constant_eta_closed_form(self, pi0, inertia):
        # pi = (a, b, 0) with equal translational inertia, and pi = (0, 0, w), are equilibria:
        # a pure translation by t eta, and a pure rotation by the angle t eta_3
        traj = integrate(DeformedStructure(get_algebra("se2")), InertiaTensor.diagonal(inertia),
                         pi0, T=3.0, dt=0.01, rep=se2_representation())
        eta = np.asarray(inertia) * pi0  # I_inv pi
        t = traj.times
        angle = eta[2] * t
        exact = np.zeros((len(t), 3, 3))
        exact[:, 0, 0] = exact[:, 1, 1] = np.cos(angle)
        exact[:, 1, 0], exact[:, 0, 1] = np.sin(angle), -np.sin(angle)
        exact[:, 0, 2], exact[:, 1, 2], exact[:, 2, 2] = eta[0] * t, eta[1] * t, 1.0
        assert np.max(np.abs(traj.gs - exact)) <= 1e-12
        assert np.all(traj.gs[:, 2] == [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("make, inertia, pi0, rep", [
        (so3, RIGID_BODY, [1.0, 0.1, 0.0], so3_vector_representation()),
        (sl2r, InertiaTensor.diagonal([1.0, 2.0, 0.5]), [0.3, 0.4, -0.2],
         sl2r_defining_representation()),
    ])
    def test_fourth_order_convergence(self, make, inertia, pi0, rep):
        structure = DeformedStructure(make())
        reference = integrate(structure, inertia, pi0, T=2.0, dt=0.00125, rep=rep).gs[-1]
        error = {dt: np.max(np.abs(integrate(structure, inertia, pi0, T=2.0, dt=dt,
                                             rep=rep).gs[-1] - reference))
                 for dt in (0.05, 0.025)}
        assert 12.0 <= error[0.05] / error[0.025] <= 20.0

    def test_so3_stays_orthogonal(self):
        traj = integrate(DeformedStructure(so3()), RIGID_BODY, [0.3, -2.0, 1.5], T=100.0,
                         dt=0.01, rep=so3_vector_representation())
        assert len(traj.gs) == 10_001
        gtg = np.einsum('kji,kjl->kil', traj.gs, traj.gs)
        assert np.max(np.abs(gtg - np.eye(3))) <= 1e-12
        assert np.max(np.abs(np.linalg.det(traj.gs) - 1.0)) <= 1e-12

    def test_momentum_bitwise_equal_with_and_without_rep(self, registry, rng):
        for algebra in registry:
            for with_upsilon in (False, True):
                structure, inertia, pi0 = random_case(algebra, rng, with_upsilon)
                plain = integrate(structure, inertia, pi0, T=0.5, dt=0.01)
                traj = integrate(structure, inertia, pi0, T=0.5, dt=0.01,
                                 rep=adjoint_representation(algebra))
                assert traj.pis.tobytes() == plain.pis.tobytes()
                for name, values in plain.monitors.items():
                    assert traj.monitors[name].tobytes() == values.tobytes()

    def test_non_finite_group_element_rejected(self):
        # pi0 = (800, 0, 0) is an equilibrium: pi stays finite while g = diag(e^800t, e^-800t)
        # overflows at t = 0.89; no RuntimeWarning is raised (an error under the test
        # configuration), and no inf or NaN is returned
        structure = DeformedStructure(sl2r())
        with pytest.raises(StepRejected) as info:
            integrate(structure, InertiaTensor.identity(3), [800.0, 0.0, 0.0], T=1.0, dt=0.01,
                      rep=sl2r_defining_representation())
        assert str(info.value) == "non-finite group element at t = 0.89"
        traj = integrate(structure, InertiaTensor.identity(3), [800.0, 0.0, 0.0], T=1.0,
                         dt=0.01)
        assert np.isfinite(traj.pis).all()

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_blocks_join_identically(self, monkeypatch, rng, block):
        structure, inertia, pi0 = random_case(sl2r(), rng, with_upsilon=True)
        rep = adjoint_representation(sl2r())
        whole = integrate(structure, inertia, pi0, T=0.2, dt=0.01, rep=rep)
        monkeypatch.setattr(dynamics, "_G_BLOCK", block)
        blocked = integrate(structure, inertia, pi0, T=0.2, dt=0.01, rep=rep)
        assert blocked.gs.tobytes() == whole.gs.tobytes()
        assert blocked.pis.tobytes() == whole.pis.tobytes()
        with pytest.raises(StepRejected, match="non-finite group element at t = 0.89"):
            integrate(DeformedStructure(sl2r()), InertiaTensor.identity(3), [800.0, 0.0, 0.0],
                      T=1.0, dt=0.01, rep=sl2r_defining_representation())

    @pytest.mark.parametrize("block", [3, 7, 1024])
    @pytest.mark.parametrize("call", [24, 26, 29])
    def test_mid_block_degenerate_abort(self, monkeypatch, rng, block, call):
        # the vector field turns degenerate at its call-th evaluation, inside step call // 4
        structure, inertia, pi0 = random_case(so3(), rng, with_upsilon=False)
        rep = so3_vector_representation()
        whole = integrate(structure, inertia, pi0, T=0.2, dt=0.01, rep=rep)
        calls = []

        def degenerate_late(*args):
            calls.append(1)
            if len(calls) > call:
                raise DegenerateForm("two-form degenerate at this momentum")
            return hamiltonian_vector_field(*args)

        monkeypatch.setattr(dynamics, "_G_BLOCK", block)
        monkeypatch.setattr(dynamics, "hamiltonian_vector_field", degenerate_late)
        traj = integrate(structure, inertia, pi0, T=0.2, dt=0.01, rep=rep)
        kept = call // 4 + 1
        assert traj.degenerate_at == whole.times[kept - 1]
        assert traj.pis.tobytes() == whole.pis[:kept].tobytes()
        assert traj.gs.tobytes() == whole.gs[:kept].tobytes()


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

    @pytest.mark.parametrize("pi0, T, message", [
        # H overflows at t = 0.02, a step before pi does; integrate rejects the state at 0.03
        ([1e3, 3e3, -2e3], 10.0, "non-finite energy at t = 0.02"),
        ([1e160, 3e160, -2e160], 1.0, "non-finite energy at t = 0"),
    ])
    def test_energy_overflow_is_step_rejected(self, pi0, T, message):
        # under the suite's error::RuntimeWarning filter an overflow warning would fail here
        with pytest.raises(StepRejected) as info:
            euler_reference(InertiaTensor.diagonal([1.0, 2.0, 3.0]), pi0, T=T, dt=0.01)
        assert str(info.value) == message

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


def _upsilon(n):
    """A fixed small antisymmetric Upsilon: 0.1 (i - j)."""
    return 0.1 * np.subtract.outer(np.arange(n), np.arange(n))


REPRESENTATIONS = {"so3": so3_vector_representation, "sl2r": sl2r_defining_representation,
                   "heisenberg": heisenberg_representation, "se2": se2_representation}

#: integrate runs pinned byte for byte: case -> (algebra, Theta, Upsilon, inertia diagonal, pi0,
#: T, dt, representation or None); signed-zero momenta, axis equilibria, Theta = 0 with
#: Upsilon != 0 on the registry, each group representation, and a degeneracy inside a step
TRAJECTORY_CORPUS = {
    "so3_signed_zero_axis": ("so3", None, None, [1.0, 0.5, 1 / 3], [-0.0, 1.0, -0.0], 0.5, 0.05,
                             None),
    "so3_signed_zero": ("so3", None, None, [1.0, 0.5, 1 / 3], [-0.0, 1.0, 0.25], 0.5, 0.05, None),
    "so3_xi_rep": ("so3", delta1_scalar(so3(), [0.1, -0.2, 0.3]), None, [1.0, 0.5, 0.25],
                   [1.0, 0.1, -0.3], 0.5, 0.025, "so3"),
    "so3_axis_equilibrium_rep": ("so3", None, None, [1.0, 0.5, 1 / 3], [0.0, 0.0, 1.0], 0.5,
                                 0.05, "so3"),
    "sl2r_equilibrium_upsilon_rep": ("sl2r", None, [[0.0, 0.25, 0.0], [-0.25, 0.0, 0.0],
                                                    [0.0, 0.0, 0.0]], [1.0, 1.0, 1.0],
                                     [1.0, 0.0, 0.0], 0.5, 0.05, "sl2r"),
    "heisenberg_signed_zero_rep": ("heisenberg", None, None, [1.0, 1.0, 1.0], [0.7, -1.3, -0.0],
                                   0.5, 0.05, "heisenberg"),
    "se2_rotation_rep": ("se2", None, None, [1.0, 1.0, 2.0], [0.0, -0.0, 1.5], 0.5, 0.05, "se2"),
    **{f"{name}_upsilon": (name, None, _upsilon(n), [1.0, 0.5, 2.0, 0.25][:n],
                           [0.5, -0.0, -0.75, 0.25][:n], 0.5, 0.05, None)
       for name, n in (("abelian2", 2), ("abelian3", 3), ("heisenberg", 3), ("se2", 3),
                       ("sl2r", 3), ("so3", 3))},
    "abelian2_signed_zero_theta": ("abelian2", [[-0.0, 0.5], [-0.5, -0.0]], _upsilon(2) * 2.5,
                                   [1.0, 1.0], [1.0, -0.0], 0.5, 0.05, None),
    # a stage lands where K = I + C Upsilon is singular: degenerate_at = 14 after 14 steps
    "heisenberg_degenerate_mid_run": ("heisenberg", [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                                                     [-0.5, 0.0, 0.0]],
                                      [[0.0, 0.25, 0.0], [-0.25, 0.0, 0.0], [0.0, 0.0, 0.0]],
                                      [1.0, 1.0, 1.0], [0.5, 0.0, 3.625], 16.0, 1.0, None),
}


def corpus_trajectory(case):
    """(header, columns) of a corpus run: t, pi, the monitors by name, then g row-major."""
    name, Theta, Upsilon, inertia, pi0, T, dt, rep = TRAJECTORY_CORPUS[case]
    algebra = get_algebra(name)
    traj = integrate(DeformedStructure(algebra, Theta, Upsilon), InertiaTensor.diagonal(inertia),
                     pi0, T, dt, rep=None if rep is None else REPRESENTATIONS[rep](),
                     extra_monitors={"last_axis": np.eye(algebra.dim)[-1]})
    header = ["t"] + [f"pi_{i}" for i in range(algebra.dim)] + sorted(traj.monitors)
    columns = [traj.times, *traj.pis.T] + [traj.monitors[k] for k in sorted(traj.monitors)]
    if traj.gs is not None:
        d = traj.gs.shape[1]
        header += [f"g_{i}_{j}" for i in range(d) for j in range(d)]
        columns += list(traj.gs.reshape(len(traj.gs), d * d).T)
    return traj, header, columns


def corpus_path(case):
    return GOLDEN / "integrate" / f"{case}.csv"


def write_corpus_goldens():
    """Rewrite tests/golden/integrate/ from this checkout's integrate, as %.17g CSV."""
    (GOLDEN / "integrate").mkdir(exist_ok=True)
    for case in TRAJECTORY_CORPUS:
        _, header, columns = corpus_trajectory(case)
        with open(corpus_path(case), "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join("%.17g" % v for v in row) + "\n" for row in zip(*columns))


class TestPinnedTrajectories:
    """integrate's bytes as written by an earlier, separately stepped implementation."""

    @pytest.mark.parametrize("case", sorted(TRAJECTORY_CORPUS))
    def test_bytes_of_the_corpus(self, case):
        traj, header, columns = corpus_trajectory(case)
        with open(corpus_path(case)) as fh:
            assert fh.readline().rstrip("\n").split(",") == header
            rows = [[float(v) for v in line.split(",")] for line in fh]
        expected = np.array(rows).T
        assert len(columns) == len(expected)
        for name, got, want in zip(header, columns, expected):
            assert np.ascontiguousarray(got).tobytes() == want.tobytes(), name
        assert (traj.degenerate_at == 14.0) == (case == "heisenberg_degenerate_mid_run")
        assert traj.complete == (case != "heisenberg_degenerate_mid_run")

    @pytest.mark.parametrize("inertia, pi0, T, dt, rep, message", [
        ([1.0, 0.5, 1 / 3], [1.0, 0.1, 0.0], 1e8, 1e6, None, "non-finite state at t = 2e+06"),
        ([1.0, 2.0, 3.0], [100.0, 300.0, -200.0], 10.0, 0.01, None,
         "non-finite state at t = 0.04"),
        ([1.0, 2.0, 3.0], [100.0, 300.0, -200.0], 10.0, 0.01, "so3",
         "non-finite group element at t = 0.03"),
        ([1.0, 2.0, 3.0], [1e200, 3e200, -2e200], 1.0, 0.5, "so3", "non-finite state at t = 0.5"),
    ])
    def test_step_rejected_times(self, inertia, pi0, T, dt, rep, message):
        inertia = InertiaTensor.diagonal(inertia)
        with pytest.raises(StepRejected) as info:
            integrate(DeformedStructure(so3()), inertia, pi0, T, dt,
                      rep=None if rep is None else REPRESENTATIONS[rep]())
        assert str(info.value) == message
        if rep is None:
            with pytest.raises(StepRejected) as info:
                euler_reference(inertia, pi0, T, dt)
            assert str(info.value) == message.replace("state", "momentum")


if __name__ == "__main__":
    write_corpus_goldens()
