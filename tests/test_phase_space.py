import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from liedeform import cohomology, phase_space
from liedeform.algebra import _transpose_residual, abelian, heisenberg, se2, sl2r, so3
from liedeform.cohomology import cocycle_residual, delta1_scalar, solve_primitive
from liedeform.dynamics import InertiaTensor, hamiltonian_vector_field
from liedeform.errors import (DegenerateForm, LieDeformError, NotACocycle, NotAntisymmetric,
                              NotExact)
from liedeform.phase_space import (RANK_TOL, DeformedStructure, decide_grid, degeneracy,
                                   lie_poisson_block, load_deformation, omega_matrix,
                                   poisson_tensor)

from conftest import random_antisymmetric
from test_cohomology import so3_plus_center


def fg_structure(F, G):
    return DeformedStructure(abelian(2),
                             np.array([[0.0, F], [-F, 0.0]]),
                             np.array([[0.0, G], [-G, 0.0]]))


def random_structure(algebra, rng, with_upsilon=True):
    Theta = delta1_scalar(algebra, rng.normal(size=algebra.dim))
    Upsilon = 0.3 * random_antisymmetric(rng, algebra.dim) if with_upsilon \
        else np.zeros((algebra.dim, algebra.dim))
    return DeformedStructure(algebra, Theta, Upsilon)


class TestStructureAdmission:
    def test_rejects_symmetric_theta(self):
        with pytest.raises(NotAntisymmetric):
            DeformedStructure(so3(), np.eye(3), np.zeros((3, 3)))

    def test_rejects_symmetric_upsilon(self):
        with pytest.raises(NotAntisymmetric):
            DeformedStructure(so3(), np.zeros((3, 3)), np.eye(3))

    def test_rejects_non_cocycle(self):
        from test_cohomology import so3_plus_center
        Theta = np.zeros((4, 4))
        Theta[2, 3], Theta[3, 2] = 1.0, -1.0
        with pytest.raises(NotACocycle):
            DeformedStructure(so3_plus_center(), Theta, np.zeros((4, 4)))

    def test_rejects_small_non_cocycle_at_relative_tolerance(self):
        from test_cohomology import so3_plus_center
        Theta = np.zeros((4, 4))
        Theta[2, 3], Theta[3, 2] = 1e-6, -1e-6
        with pytest.raises(NotACocycle, match=r"residual 1\.000e-06 > 1\.000e-09"):
            DeformedStructure(so3_plus_center(), Theta, np.zeros((4, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["Theta", "Upsilon"])
    def test_rejects_non_finite_entries(self, bad, which):
        # NaN fails every `>` check, and inf - inf is NaN: both must still be rejected
        A = np.zeros((3, 3))
        A[0, 1], A[1, 0] = bad, -bad
        args = {"Theta": (A, None), "Upsilon": (None, A)}[which]
        with pytest.raises(NotAntisymmetric) as info:
            DeformedStructure(so3(), *args)
        assert str(info.value) == f"{which} has a non-finite entry {bad} at (0, 1)"
        with pytest.raises(NotAntisymmetric):
            DeformedStructure(so3(), A, A)

    def test_rejects_a_cocycle_residual_that_overflows(self):
        # finite entries whose delta2 sums inf - inf: a NaN admission residual must not pass
        Theta = 1e308 * np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
        with pytest.raises(NotACocycle, match="residual nan"):  # and no RuntimeWarning
            DeformedStructure(sl2r(), Theta)

    def test_antisymmetry_is_relative_to_the_scale_of_theta(self):
        # Theta = delta xi with |xi| = 1e6 and asymmetric noise of 1e-10 (relative 1e-16)
        noise = np.random.default_rng(5).normal(size=(3, 3))
        noise *= 1e-10 / np.max(np.abs(noise + noise.T))
        Theta = delta1_scalar(so3(), [0.0, 0.0, 1e6]) + noise
        S = DeformedStructure(so3(), Theta)
        assert cocycle_residual(so3(), Theta) < 1e-9  # delta2 admits what _admit admits
        solve_primitive(so3(), Theta)  # admitted with Upsilon = 0 too
        assert degeneracy(S, np.zeros(3)).nullity == 0
        # relative asymmetry above 1e-12 is still rejected, with its residual and bound
        with pytest.raises(NotAntisymmetric,
                           match=r"Theta fails antisymmetry: residual 1\.000e-05 > 1\.000e-06"):
            DeformedStructure(so3(), Theta + 1e5 * noise)

    def test_defaults_to_undeformed(self):
        S = DeformedStructure(so3())
        assert np.array_equal(S.Theta, np.zeros((3, 3)))
        assert np.array_equal(S.Upsilon, np.zeros((3, 3)))

    def test_keeps_the_callers_arrays_writable(self):
        Theta, Upsilon = np.zeros((3, 3)), np.zeros((3, 3))
        S = DeformedStructure(so3(), Theta, Upsilon)
        Theta[0, 1], Upsilon[1, 2] = 1.0, 1.0
        assert not S.Theta.any() and not S.Upsilon.any()
        assert S.upsilon_zero
        with pytest.raises(ValueError, match="read-only"):
            S.Theta[0, 1] = 1.0

    def test_upsilon_zero_flag(self):
        for entry, zero in ((0.0, True), (-0.0, True), (1e-300, False), (-2.5, False)):
            Upsilon = np.zeros((3, 3))
            Upsilon[0, 2], Upsilon[2, 0] = entry, -entry
            assert DeformedStructure(so3(), None, Upsilon).upsilon_zero is zero

    def test_checks_antisymmetry_once(self, monkeypatch, rng):
        calls = []

        def counting(A, *args, **kwargs):
            calls.append(A.shape)
            return _transpose_residual(A, *args, **kwargs)

        monkeypatch.setattr(cohomology, "_transpose_residual", counting)
        algebra = so3()
        DeformedStructure(algebra, delta1_scalar(algebra, [0.1, 0.2, 0.3]))
        decide_grid(algebra, delta1_scalar(algebra, rng.normal(size=(5, 1, 3))),
                    np.zeros((1, 4, 3, 3)), np.zeros(3))
        # one call per admission, on every matrix once: Theta and Upsilon, then the 5 Theta and
        # 4 Upsilon of a 5 x 4 grid, not its 20 pairs
        assert calls == [(2, 3, 3), (9, 3, 3)]


class TestOmegaMatrix:
    def test_abelian_block_example(self):
        # direct block assembly with F = G = 0.5; the momentum term vanishes
        M = omega_matrix(fg_structure(0.5, 0.5), [3.7, -1.2])
        expected = np.array([
            [0.0, 0.5, 1.0, 0.0],
            [-0.5, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.5],
            [0.0, -1.0, -0.5, 0.0]])
        assert np.array_equal(M, expected)

    def test_so3_lie_poisson_block(self):
        S = DeformedStructure(so3())
        M = omega_matrix(S, [0.0, 0.0, 1.0])
        C = M[:3, :3]
        expected = np.zeros((3, 3))
        expected[0, 1], expected[1, 0] = 1.0, -1.0
        assert np.array_equal(C, expected)

    def test_canonical_darboux_matrix(self, registry):
        for algebra in registry:
            n = algebra.dim
            M = omega_matrix(DeformedStructure(algebra), np.zeros(n))
            expected = np.block([[np.zeros((n, n)), np.eye(n)],
                                 [-np.eye(n), np.zeros((n, n))]])
            assert np.array_equal(M, expected)

    def test_block_structure_random(self, registry, rng):
        # 200 samples per algebra: exact antisymmetry and exact block layout
        for algebra in registry:
            n = algebra.dim
            for _ in range(200):
                S = random_structure(algebra, rng)
                pi = rng.normal(size=n)
                M = omega_matrix(S, pi)
                assert np.array_equal(M, -M.T)
                assert np.array_equal(M[:n, :n], lie_poisson_block(S, pi))
                assert np.array_equal(M[:n, n:], np.eye(n))
                assert np.array_equal(M[n:, :n], -np.eye(n))
                assert np.array_equal(M[n:, n:], S.Upsilon)


class TestDegeneracy:
    def test_abelian_critical(self):
        report = degeneracy(fg_structure(1.0, 1.0), np.zeros(2))
        assert report.nullity == 2
        assert report.rank == 2
        assert report.kernel.shape == (4, 2)

    def test_abelian_regular(self):
        report = degeneracy(fg_structure(0.5, 0.5), np.zeros(2))
        assert report.nullity == 0

    def test_upsilon_zero_never_degenerate(self, registry, rng):
        for algebra in registry:
            for _ in range(20):
                S = random_structure(algebra, rng, with_upsilon=False)
                assert degeneracy(S, rng.normal(size=algebra.dim)).nullity == 0

    def test_schur_oracle(self, registry, rng):
        # nullity(M) equals nullity(I + Upsilon C(pi)) on 200 samples per algebra
        for algebra in registry:
            n = algebra.dim
            for _ in range(200):
                S = random_structure(algebra, rng)
                pi = rng.normal(size=n)
                M = omega_matrix(S, pi)
                K = np.eye(n) + S.Upsilon @ lie_poisson_block(S, pi)
                s_m = np.linalg.svd(M, compute_uv=False)
                s_k = np.linalg.svd(K, compute_uv=False)
                null_m = int(np.sum(s_m <= 1e-10 * s_m[0]))
                null_k = int(np.sum(s_k <= 1e-10 * max(s_k[0], 1.0)))
                assert null_m == null_k

    @pytest.mark.parametrize("pi3", [1e5, 1e6])
    def test_canonical_form_nondegenerate_at_large_momentum(self, pi3):
        # Theta = Upsilon = 0: K = I exactly, and det M = 1 at every momentum
        report = degeneracy(DeformedStructure(so3()), np.array([0.0, 0.0, pi3]))
        assert (report.rank, report.nullity, report.kernel.shape) == (6, 0, (6, 0))

    def test_kernel_vectors_annihilate(self):
        S = fg_structure(1.0, 1.0)
        report = degeneracy(S, np.zeros(2))
        M = omega_matrix(S, np.zeros(2))
        assert np.max(np.abs(M @ report.kernel)) < 1e-12

    def test_carries_the_poisson_tensor(self, registry, rng):
        # poisson_tensor's bytes, and _poisson's of omega_matrix, where nondegenerate, also on
        # GL(3)-conjugated algebras; None where degenerate
        from test_dynamics import conjugated
        P = np.random.default_rng(7).normal(size=(3, 3, 3)) + 3.0 * np.eye(3)
        for algebra in registry + [conjugated(a, p) for a, p in zip((so3(), sl2r(), se2()), P)]:
            for _ in range(20):
                S = random_structure(algebra, rng)
                pi = rng.normal(size=algebra.dim)
                report = degeneracy(S, pi)
                assert report.nullity == 0
                assert report.poisson.tobytes() == poisson_tensor(S, pi).tobytes()
                assert report.poisson.tobytes() == phase_space._poisson(
                    omega_matrix(S, pi)).tobytes()
        assert degeneracy(fg_structure(1.0, 1.0), np.zeros(2)).poisson is None

    def test_overflowing_inverse_raises(self):
        with pytest.raises(ValueError, match="^the inverse of the two-form matrix is not finite$"):
            degeneracy(DeformedStructure(so3()), np.full(3, 1e308))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_momentum_raises_before_lapack(self, bad):
        # not LAPACK's "SVD did not converge", and no RuntimeWarning (an error under the
        # test configuration) from forming C(pi)
        S = DeformedStructure(so3(), None, 0.3 * random_antisymmetric(np.random.default_rng(0), 3))
        for decide in (degeneracy, poisson_tensor):
            with pytest.raises(ValueError, match=f"^pi has a non-finite entry {bad} at 1$"):
                decide(S, np.array([0.5, bad, 0.0]))


class TestPoissonTensor:
    def test_canonical_inverse(self):
        Pi = poisson_tensor(DeformedStructure(abelian(2)), np.zeros(2))
        expected = np.block([[np.zeros((2, 2)), -np.eye(2)],
                             [np.eye(2), np.zeros((2, 2))]])
        assert np.allclose(Pi, expected, atol=1e-14)

    def test_abelian_bracket_magnitudes(self):
        # closed form: momentum-momentum F/(1-FG), frame-frame G/(1-FG)
        F = G = 0.5
        Pi = poisson_tensor(fg_structure(F, G), np.zeros(2))
        assert abs(abs(Pi[2, 3]) - F / (1 - F * G)) < 1e-12
        assert abs(abs(Pi[0, 1]) - G / (1 - F * G)) < 1e-12
        # independent 4x4 inversion oracle
        oracle = np.linalg.inv(omega_matrix(fg_structure(F, G), np.zeros(2)))
        assert np.allclose(Pi, oracle, atol=1e-13)

    def test_degenerate_raises_with_kernel(self):
        with pytest.raises(DegenerateForm) as excinfo:
            poisson_tensor(fg_structure(1.0, 1.0), np.zeros(2))
        assert excinfo.value.kernel.shape == (4, 2)

    def test_overflowing_inverse_raises(self):
        # K = I is nondegenerate, but the inverse of M at |pi| ~ 1e308 is not finite
        with pytest.raises(ValueError, match="^the inverse of the two-form matrix is not finite$"):
            poisson_tensor(DeformedStructure(so3()), np.full(3, 1e308))

    def test_inversion_random(self, registry, rng):
        for algebra in registry:
            n = algebra.dim
            for _ in range(50):
                S = random_structure(algebra, rng)
                pi = rng.normal(size=n)
                if degeneracy(S, pi).nullity:
                    continue
                Pi = poisson_tensor(S, pi)
                assert np.max(np.abs(Pi @ omega_matrix(S, pi) - np.eye(2 * n))) < 1e-10
                assert np.array_equal(Pi, -Pi.T)


def loop_verdicts(algebra, Theta, Upsilon, pi, rank_tol=RANK_TOL):
    """(ranks, nullities, Poisson bytes) of each point of the broadcast stacks, or the first
    point's (error type, message): one DeformedStructure and degeneracy per point."""
    n = algebra.dim
    grid = np.broadcast_shapes(Theta.shape[:-2], Upsilon.shape[:-2])
    ranks, nullities, poisson = [], [], b""
    try:
        for T, U in zip(*(np.broadcast_to(A, grid + (n, n)).reshape(-1, n, n)
                          for A in (Theta, Upsilon))):
            report = degeneracy(DeformedStructure(algebra, T, U), pi, rank_tol)
            ranks.append(report.rank)
            nullities.append(report.nullity)
            poisson += b"" if report.poisson is None else report.poisson.tobytes()
    except LieDeformError as exc:
        return type(exc), str(exc)
    return ranks, nullities, poisson


def grid_verdicts(algebra, Theta, Upsilon, pi, rank_tol=RANK_TOL):
    """``loop_verdicts``' result from one decide_grid call."""
    try:
        grid = decide_grid(algebra, Theta, Upsilon, pi, rank_tol)
    except LieDeformError as exc:
        return type(exc), str(exc)
    return grid.rank.tolist(), grid.nullity.tolist(), grid.poisson.tobytes()


class TestDecideGrid:
    def test_matches_pointwise_loop(self, registry, rng):
        # the per-point loop is the reference: equal verdicts, bitwise equal tensors, also on
        # GL(3)-conjugated algebras, whose non-integer f a user's spec file can hold
        from test_dynamics import conjugated
        P = np.random.default_rng(7).normal(size=(3, 3, 3)) + 3.0 * np.eye(3)
        for algebra in registry + [conjugated(a, p) for a, p in zip((so3(), sl2r(), se2()), P)]:
            n = algebra.dim
            Theta = np.array([delta1_scalar(algebra, rng.normal(size=n)) for _ in range(40)])
            Upsilon = np.array([0.3 * random_antisymmetric(rng, n) for _ in range(40)])
            Theta[::4] = 0.0
            pi = rng.normal(size=n)
            grid = decide_grid(algebra, Theta, Upsilon, pi)
            poisson = iter(grid.poisson)
            for T, U, rank, nullity in zip(Theta, Upsilon, grid.rank, grid.nullity):
                S = DeformedStructure(algebra, T, U)
                report = degeneracy(S, pi)
                assert (rank, nullity) == (report.rank, report.nullity)
                if nullity == 0:
                    assert np.array_equal(next(poisson), poisson_tensor(S, pi))
            assert next(poisson, None) is None

    def test_degenerate_points_and_rank_tol(self):
        F = np.array([0.5, 1.0, 2.0, 1.5])
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        Theta, Upsilon = F[:, None, None] * J, (1.0 / F)[:, None, None] * J
        Upsilon[3] *= 0.9
        grid = decide_grid(abelian(2), Theta, Upsilon, np.zeros(2))
        assert grid.nullity.tolist() == [2, 2, 2, 0]
        assert grid.poisson.shape == (1, 4, 4)
        coarse = decide_grid(abelian(2), Theta, Upsilon, np.zeros(2), rank_tol=0.2)
        assert coarse.nullity.tolist() == [2, 2, 2, 2]
        assert coarse.poisson.shape == (0, 4, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_momentum_raises_before_lapack(self, bad):
        with pytest.raises(ValueError, match=f"^pi has a non-finite entry {bad} at 2$"):
            decide_grid(so3(), np.zeros((2, 3, 3)), np.zeros((2, 3, 3)), [0.0, 1.0, bad])

    def test_overflowing_inverse_raises(self):
        with pytest.raises(ValueError, match="^the inverse of the two-form matrix is not finite$"):
            decide_grid(so3(), np.zeros((2, 3, 3)), np.zeros((2, 3, 3)), np.full(3, 1e308))

    def test_empty_grid(self):
        grid = decide_grid(so3(), np.zeros((0, 3, 3)), np.zeros((0, 3, 3)), np.zeros(3))
        assert grid.rank.shape == grid.nullity.shape == (0,)
        assert grid.poisson.shape == (0, 6, 6)

    @pytest.mark.parametrize("bad_cocycle, bad_asymmetry", [(2, 4), (4, 1), (3, 3)])
    def test_first_failing_point_raises_its_own_error(self, bad_cocycle, bad_asymmetry):
        from test_cohomology import so3_plus_center
        algebra = so3_plus_center()
        Theta, Upsilon = np.zeros((6, 4, 4)), np.zeros((6, 4, 4))
        Theta[bad_cocycle, 2, 3], Theta[bad_cocycle, 3, 2] = 0.25, -0.25
        Upsilon[bad_asymmetry, 0, 1] = 1.0
        first = min(bad_cocycle, bad_asymmetry)
        with pytest.raises((NotACocycle, NotAntisymmetric)) as pointwise:
            DeformedStructure(algebra, Theta[first], Upsilon[first])
        with pytest.raises(type(pointwise.value)) as stacked:
            decide_grid(algebra, Theta, Upsilon, np.zeros(4))
        assert str(stacked.value) == str(pointwise.value)

    @pytest.mark.parametrize("bad_cocycle, non_finite", [(2, 4), (4, 1)])
    def test_non_finite_point_raises_in_grid_order(self, bad_cocycle, non_finite):
        from test_cohomology import so3_plus_center
        algebra = so3_plus_center()
        Theta, Upsilon = np.zeros((6, 4, 4)), np.zeros((6, 4, 4))
        Theta[bad_cocycle, 2, 3], Theta[bad_cocycle, 3, 2] = 0.25, -0.25
        Upsilon[non_finite, 1, 0] = np.nan
        first = min(bad_cocycle, non_finite)
        with pytest.raises((NotACocycle, NotAntisymmetric)) as pointwise:
            DeformedStructure(algebra, Theta[first], Upsilon[first])
        with pytest.raises(type(pointwise.value)) as stacked:
            decide_grid(algebra, Theta, Upsilon, np.zeros(4))
        assert str(stacked.value) == str(pointwise.value)
        Theta[bad_cocycle] = 0.0
        with pytest.raises(NotAntisymmetric, match=r"Upsilon has a non-finite entry nan at \(1, 0\)"):
            decide_grid(algebra, Theta, Upsilon, np.zeros(4))


    @pytest.mark.parametrize("rank_tol", [RANK_TOL, 0.05, 0.06])
    def test_broadcasts_a_column_of_theta_against_a_row_of_upsilon(self, registry, rng,
                                                                  rank_tol):
        # (a, 1, N, N) against (1, b, N, N): the a x b grid, row-major; Upsilon column k makes
        # K singular at Theta row k for k = 0, 3, and nearly so for k = 1
        seen = set()
        for algebra in registry:
            n = algebra.dim
            pi = rng.normal(size=n)
            Theta, Upsilon = TestOneNondegeneracyRule.points(algebra, rng, pi, size=5)
            Theta, Upsilon = Theta[:, None], Upsilon[None, :4]
            expected = loop_verdicts(algebra, Theta, Upsilon, pi, rank_tol)
            assert grid_verdicts(algebra, Theta, Upsilon, pi, rank_tol) == expected
            assert len(expected[1]) == 20
            seen.update(expected[1])
        assert seen == {0, 2}

    def test_one_point_grid(self, rng):
        algebra = so3()
        Theta = delta1_scalar(algebra, rng.normal(size=3))
        Upsilon = 0.3 * random_antisymmetric(rng, 3)
        pi = rng.normal(size=3)
        expected = loop_verdicts(algebra, Theta, Upsilon, pi)
        assert len(expected[0]) == 1
        assert grid_verdicts(algebra, Theta, Upsilon, pi) == expected
        grid = decide_grid(algebra, Theta, Upsilon, pi)
        assert grid.rank.shape == grid.nullity.shape == (1,)

    @pytest.mark.parametrize("theta_size, upsilon_size", [(0, 3), (2, 0)])
    def test_empty_axis(self, theta_size, upsilon_size):
        # the other stack is not admitted on an empty grid: its failing matrix raises nothing
        from test_cohomology import so3_plus_center
        algebra = so3_plus_center()
        Theta, Upsilon = np.zeros((theta_size, 1, 4, 4)), np.zeros((1, upsilon_size, 4, 4))
        Theta[1:, 0, 2, 3], Upsilon[0, 1:, 0, 1] = 0.25, 1.0  # a non-cocycle, an asymmetric one
        assert grid_verdicts(algebra, Theta, Upsilon, np.ones(4)) == loop_verdicts(
            algebra, Theta, Upsilon, np.ones(4)) == ([], [], b"")
        assert decide_grid(algebra, Theta, Upsilon, np.ones(4)).poisson.shape == (0, 8, 8)

    def test_first_failing_grid_point_is_not_the_first_failing_row(self):
        # Upsilon along the first axis, Theta along the second: Upsilon row 1 and Theta row 1
        # both fail, but grid point 1 pairs Upsilon row 0 with Theta row 1, whose error wins
        from test_cohomology import so3_plus_center
        algebra = so3_plus_center()
        Theta, Upsilon = np.zeros((1, 2, 4, 4)), np.zeros((2, 1, 4, 4))
        Theta[0, 1, 2, 3], Theta[0, 1, 3, 2] = 0.25, -0.25
        Upsilon[1, 0, 0, 1] = 1.0
        expected = loop_verdicts(algebra, Theta, Upsilon, np.zeros(4))
        assert expected[0] is NotACocycle
        assert grid_verdicts(algebra, Theta, Upsilon, np.zeros(4)) == expected
        # row by row, the pair (Theta row 1, Upsilon row 1) fails antisymmetry first
        with pytest.raises(NotAntisymmetric):
            decide_grid(algebra, Theta[0], Upsilon[:, 0], np.zeros(4))


#: what a matrix of a stack may carry: nothing, most often, or faults that admission rejects
FAULTS = st.sampled_from([(), (), (), ("asymmetric",), ("not a cocycle",), ("non-finite",),
                          ("not a cocycle", "asymmetric"), ("not a cocycle", "non-finite")])


@st.composite
def broadcast_stacks(draw):
    """Theta and Upsilon stacks on so3 + R whose shapes broadcast; Theta a coboundary and
    Upsilon antisymmetric, matrix by matrix, unless faults are injected: an asymmetric entry, a
    mixed (so3, R) entry pair that breaks the cocycle condition, a non-finite entry."""
    algebra = so3_plus_center()
    shapes = draw(mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3,
                                                min_side=draw(st.sampled_from([1, 1, 1, 0]))))
    values = st.floats(-2.0, 2.0, allow_subnormal=False)
    stacks = []
    for shape in shapes.input_shapes:
        A = np.zeros(shape + (4, 4))
        for index in np.ndindex(shape):
            A[index] = delta1_scalar(algebra, draw(st.lists(values, min_size=4, max_size=4)))
            for fault in draw(FAULTS):
                i, j = draw(st.sampled_from([(0, 1), (0, 3), (1, 2), (2, 3), (3, 1)]))
                if fault == "asymmetric":
                    A[index + (i, j)] += 0.5
                elif fault == "not a cocycle":  # an so3 index against the central one
                    A[index + (j % 3, 3)], A[index + (3, j % 3)] = 0.25, -0.25
                else:
                    A[index + (i, j)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        stacks.append(A)
    return algebra, *stacks


@settings(max_examples=150, deadline=None)
@given(case=broadcast_stacks())
def test_broadcast_admission_fails_where_the_first_point_does(case):
    # the error of the first failing point of np.broadcast_to of both stacks, raised by
    # DeformedStructure, or each point's verdict where every point passes
    algebra, Theta, Upsilon = case
    assert grid_verdicts(algebra, Theta, Upsilon, np.zeros(4)) == loop_verdicts(
        algebra, Theta, Upsilon, np.zeros(4))


class TestOneNondegeneracyRule:
    """decide_grid, degeneracy and the vector field share one verdict per point."""

    @staticmethod
    def points(algebra, rng, pi, size=30):
        """Random points; a third with K = I + C Upsilon singular, a third 1e-3 away from it.

        For N <= 3, C^2 = c c^T - |c|^2 I (N = 3) or -|c|^2 I (N = 2), with
        |c|^2 = ||C||_F^2 / 2, so Upsilon = C / |c|^2 puts an eigenvalue -1 on
        C Upsilon twice.
        """
        n = algebra.dim
        if algebra.f.any():
            Theta = delta1_scalar(algebra, rng.normal(size=(size, n)))
        else:
            Theta = np.array([random_antisymmetric(rng, n) for _ in range(size)])
        Upsilon = np.array([0.5 * random_antisymmetric(rng, n) for _ in range(size)])
        C = np.einsum('m,mab->ab', pi, algebra.f) + Theta
        critical = C / (0.5 * np.sum(C * C, axis=(1, 2)))[:, None, None]
        Upsilon[::3] = critical[::3]
        Upsilon[1::3] = (1.0 + 1e-3) * critical[1::3]
        return Theta, Upsilon

    @pytest.mark.parametrize("rank_tol", [RANK_TOL, 0.05])
    def test_grid_pointwise_and_vector_field_agree(self, registry, rng, rank_tol):
        seen = set()
        for algebra in registry:
            n = algebra.dim
            pi = rng.normal(size=n)
            Theta, Upsilon = self.points(algebra, rng, pi)
            grid = decide_grid(algebra, Theta, Upsilon, pi, rank_tol=rank_tol)
            assert np.all(grid.nullity % 2 == 0) and np.all(grid.rank + grid.nullity == 2 * n)
            for T, U, nullity in zip(Theta, Upsilon, grid.nullity):
                S = DeformedStructure(algebra, T, U)
                assert degeneracy(S, pi, rank_tol).nullity == nullity
                if rank_tol == RANK_TOL:
                    try:
                        hamiltonian_vector_field(S, InertiaTensor.identity(n), pi)
                        field_degenerate = False
                    except DegenerateForm:
                        field_degenerate = True
                    assert field_degenerate == (nullity > 0)
            seen.update(grid.nullity.tolist())
        assert seen == {0, 2}


class TestDarbouxShift:
    """The shift pi -> pi - xi by the structure's kept primitive ``_xi``."""

    def test_so3_example(self):
        xi = np.array([0.0, 0.0, 1.0])
        S = DeformedStructure(so3(), delta1_scalar(so3(), xi))
        pi = np.array([0.0, 0.0, 1.0])
        assert np.allclose(pi - S._xi, np.zeros(3), atol=1e-13)
        assert np.allclose(S._xi, xi, atol=1e-13)
        assert np.max(np.abs(lie_poisson_block(S, pi))) < 1e-13

    def test_trivial_theta(self, rng):
        S = DeformedStructure(so3())
        pi = rng.normal(size=3)
        assert np.array_equal(pi - S._xi, pi)
        assert np.array_equal(S._xi, np.zeros(3))

    def test_heisenberg_not_exact(self):
        Theta = np.zeros((3, 3))
        Theta[0, 2], Theta[2, 0] = 1.0, -1.0
        for Upsilon in (None, Theta):  # no primitive, whatever Upsilon is
            assert DeformedStructure(heisenberg(), Theta, Upsilon)._xi is None
        with pytest.raises(NotExact) as info:  # which solve_primitive raises with xi and residual
            solve_primitive(heisenberg(), Theta)
        assert info.value.xi.shape == (3,) and info.value.residual > 0

    def test_upsilon_present(self, registry, rng):
        # the shift moves only C(pi): M_{delta xi, Upsilon}(pi) = M_{0, Upsilon}(pi - xi)
        for algebra in registry:
            for _ in range(20):
                xi, pi = rng.normal(size=(2, algebra.dim))
                Upsilon = random_antisymmetric(rng, algebra.dim)
                S = DeformedStructure(algebra, delta1_scalar(algebra, xi), Upsilon)
                M = omega_matrix(S, pi)
                shifted = omega_matrix(DeformedStructure(algebra, None, Upsilon), pi - S._xi)
                assert np.max(np.abs(M - shifted)) <= 1e-12 * np.max(np.abs(M))

    def test_darboux_identity_random(self, rng):
        # C_Theta(pi) = C_0(pi - xi) entrywise for 100 random (xi, pi)
        for algebra in (so3(), sl2r()):
            undeformed = DeformedStructure(algebra)
            for _ in range(100):
                xi = rng.normal(size=3)
                pi = rng.normal(size=3)
                S = DeformedStructure(algebra, delta1_scalar(algebra, xi))
                lhs = lie_poisson_block(S, pi)
                rhs = lie_poisson_block(undeformed, pi - S._xi)
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_darboux_identity_all_registry(self, registry, rng):
        for algebra in registry:
            undeformed = DeformedStructure(algebra)
            for _ in range(20):
                xi = rng.normal(size=algebra.dim)
                pi = rng.normal(size=algebra.dim)
                S = DeformedStructure(algebra, delta1_scalar(algebra, xi))
                assert np.max(np.abs(lie_poisson_block(S, pi)
                                     - lie_poisson_block(undeformed, pi - S._xi))) < 1e-12


class TestLoadDeformation:
    def test_theta_upsilon(self, tmp_path):
        import json
        path = tmp_path / "def.json"
        path.write_text(json.dumps({
            "Theta": [[0.0, 0.5], [-0.5, 0.0]],
            "Upsilon": [[0.0, 0.25], [-0.25, 0.0]],
            "xi": None}))
        S = load_deformation(path, abelian(2))
        assert S.Theta[0, 1] == 0.5
        assert S.Upsilon[0, 1] == 0.25

    def test_xi_builds_coboundary(self, tmp_path):
        import json
        path = tmp_path / "def.json"
        path.write_text(json.dumps({"Theta": None, "Upsilon": None,
                                    "xi": [0.0, 0.0, 1.0]}))
        S = load_deformation(path, so3())
        assert np.array_equal(S.Theta, delta1_scalar(so3(), [0.0, 0.0, 1.0]))
