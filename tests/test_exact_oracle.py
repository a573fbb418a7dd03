"""Exact oracles for the K verdict and the admission verdict, at dyadic points.

The K verdict: sympy's rank of K = I + C(pi) Upsilon.

Every entry of pi, Theta and Upsilon is k / 2^j with j <= 3 and |k / 2^j| <= 2, and the
structure constants are integers: those of each registry algebra, and of an integer unimodular
conjugate of each.  float64 then holds C(pi) and K exactly, so the float verdicts of
decide_grid (on broadcast stacks) and of degeneracy can be checked against rational
arithmetic:

- the exact nullity of K, from sympy's rank over QQ, is the nullity of M at the default
  rank_tol;
- at any rank_tol, the rule counts the singular values sigma of K at or below
  rank_tol * max(sigma_max, 1), rounded up to even.  The oracle counts them from isolating
  intervals of the eigenvalues sigma^2 of K^T K, refined until each is decided.

A disagreement fails with its margin: the distance of the nearest sigma from the cut.

The admission verdict: on so3 + R and its conjugate, where a Theta can fail the cocycle
condition, float64 delta2 of a dyadic Theta is exact too, so DeformedStructure must admit
exactly where sympy's delta2 Theta is zero, and decide_grid must raise at the first grid point
whose Theta or Upsilon fails exactly.  Any failure is exact and at least 1/8: far above the
antisymmetry bound and every admission tolerance.
"""
import functools
from fractions import Fraction

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from liedeform.algebra import LieAlgebra, get_algebra
from liedeform.errors import NotACocycle, NotAntisymmetric
from liedeform.phase_space import (_CERTIFIED_SQ, RANK_TOL, DeformedStructure, decide_grid,
                                   degeneracy)

from conftest import registry_algebras
from test_cohomology import so3_plus_center

NAMES = [a.name for a in registry_algebras()] + ["abelian4"]
RANK_TOLS = [RANK_TOL, 0.05, 0.06]  # the certificate decides below 0.1 / 1.9 = 0.0526
J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def exact(A):
    """A float array as an object array of the Fractions it holds exactly."""
    return np.vectorize(Fraction, otypes=[object])(A)


def conjugate(algebra):
    """The algebra in the basis e'_a = P[d, a] e_d, P = (I + shift up)(I + shift down), det 1."""
    n = algebra.dim
    P = (np.eye(n) + np.eye(n, k=1)) @ (np.eye(n) + np.eye(n, k=-1))
    P_inv = np.array(sympy.Matrix(P.astype(int)).inv(), dtype=float)
    f = np.einsum('mc,cde,da,eb->mab', P_inv, algebra.f, P, P)
    assert np.array_equal(f, np.round(f))  # integral, so C(pi) stays exact
    return LieAlgebra.from_structure_constants(algebra.name + "'", f)


def dyadic(rng, size, k=16):
    """Entries j / 8 with |j| <= k."""
    return rng.integers(-k, k + 1, size=size) / 8.0


def antisymmetric(rng, n, k=16):
    A = np.triu(dyadic(rng, (n, n), k), 1)
    return A - A.T


def admissible(x):
    """1 / x where that is dyadic with j <= 3 and at most 2 in size, else None."""
    if x == 0:
        return None
    y = Fraction(1) / Fraction(x)
    return float(y) if abs(y) <= 2 and 8 % y.denominator == 0 else None


def singular_partner(C):
    """An Upsilon with dyadic entries that makes K = I + C Upsilon exactly singular, or None.

    N = 2: C = c J, Upsilon = J / c gives C Upsilon = -I.  N = 3: C = hat(c), and
    hat(c) hat(u) = u c^T - (c . u) I, so u = e_k / c_k gives K = u c^T, of rank 1.
    """
    n = len(C)
    if n == 2 and admissible(C[0, 1]) is not None:
        return admissible(C[0, 1]) * J
    if n == 3:
        c = (C[2, 1], C[0, 2], C[1, 0])
        for k in range(3):
            if admissible(c[k]) is not None:
                u = np.zeros(3)
                u[k] = admissible(c[k])
                return np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return None


@functools.cache
def case(name, conjugated):
    """(algebra, pi, Theta (a, N, N), Upsilon (b, N, N)) with exactly singular grid points.

    abelian2 has Theta = a J against Upsilon = J / a; abelian4 the blocks diag(a J, b J)
    against diag(J / a, J / b) (nullity 4) and diag(J / a, 0) (nullity 2).  Elsewhere
    Upsilon rows 0-2 are singular partners of Theta rows 0-2.  Random rows of two scales put
    points on both sides of the certificate.
    """
    algebra = get_algebra(name)
    algebra = conjugate(algebra) if conjugated else algebra
    n = algebra.dim
    rng = np.random.default_rng(sum(map(ord, algebra.name)))
    pi = dyadic(rng, n, 4)
    if name == "abelian2":  # and a b = 63/64: K = I / 64, below the cut only through max(., 1)
        Theta = [a * J for a in (0.5, -1.0, 2.0, 0.875)]
        Upsilon = [J / a for a in (0.5, -1.0, 2.0)] + [1.125 * J]
    elif name == "abelian4":
        blocks = [(0.5, -2.0), (1.0, 0.25), (-0.5, 1.0)]
        Theta = [np.kron(np.diag([a, b]), J) for a, b in blocks]
        Upsilon = [np.kron(np.diag([1 / a, 1 / b if k != 1 else 0.0]), J)
                   for k, (a, b) in enumerate(blocks)]
    else:
        Theta, Upsilon = [], []
        while len(Upsilon) < 3:
            T = antisymmetric(rng, n, 8)
            U = singular_partner(np.tensordot(pi, algebra.f, 1) + T)  # exact in float64
            if U is not None:
                Theta.append(T)
                Upsilon.append(U)
    Theta += [antisymmetric(rng, n, k) for k in (2, 4, 16)]
    Upsilon += [antisymmetric(rng, n, k) for k in (1, 2, 4, 8, 16)]
    return algebra, pi, np.array(Theta), np.array(Upsilon)


@functools.cache
def _exact(K):
    """The nullity of K over QQ, and the characteristic polynomial of K^T K."""
    n = len(K)
    K = DomainMatrix([[sympy.QQ(x.numerator, x.denominator) for x in row] for row in K],
                     (n, n), sympy.QQ)
    return n - K.rank(), sympy.Poly((K.transpose() * K).charpoly(), sympy.Symbol("x"),
                                    domain=sympy.QQ)


@functools.cache
def _intervals(K, eps):
    """Isolating intervals ((a, b), multiplicity) of the eigenvalues of K^T K, ascending."""
    return _exact(K)[1].intervals(eps=eps)


@functools.cache
def exact_verdict(K, rank_tol):
    """(nullity by the rule, exact nullity of K) for a K of Fractions, as a tuple of rows.

    sigma <= rank_tol max(sigma_max, 1) is sigma^2 <= t max(sigma_max^2, 1), t = rank_tol^2:
    the isolating intervals of the eigenvalues sigma^2 are refined until each lies on one side.
    """
    t = Fraction(rank_tol) ** 2
    for eps in (None, Fraction(1, 2 ** 10), Fraction(1, 2 ** 40), Fraction(1, 2 ** 160)):
        roots = _intervals(K, eps)
        top = roots[-1][0]
        low, high = t * max(Fraction(top[0]), 1), t * max(Fraction(top[1]), 1)
        below = sum(m for (a, b), m in roots if Fraction(b) <= low)
        if below + sum(m for (a, b), m in roots if Fraction(a) > high) == len(K):
            return below + below % 2, _exact(K)[0]
    raise AssertionError(f"sigma within 2^-160 of the cut: margin {margin(K, rank_tol):.3g}")


def margin(K, rank_tol):
    """The distance of K's nearest singular value from the cut rank_tol max(sigma_max, 1)."""
    roots = _intervals(K, Fraction(1, 2 ** 60))
    sigma = np.sqrt([float(a + b) / 2 for (a, b), m in roots])
    return float(np.min(np.abs(sigma - rank_tol * max(sigma[-1], 1.0))))


def grid_points(algebra, pi, Theta, Upsilon):
    """Each point of the Theta x Upsilon grid, row-major: (Theta, Upsilon, exact K as a tuple
    of rows, ||C Upsilon||_F^2)."""
    n = algebra.dim
    C = np.tensordot(exact(pi), exact(algebra.f), 1)
    for T in Theta:
        for U in Upsilon:
            X = (C + exact(T)).dot(exact(U))
            yield T, U, tuple(map(tuple, np.eye(n, dtype=int) + X)), np.sum(X * X)


@pytest.mark.parametrize("conjugated", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_k_verdicts_equal_the_exact_ones(name, conjugated):
    algebra, pi, Theta, Upsilon = case(name, conjugated)
    points = list(grid_points(algebra, pi, Theta, Upsilon))
    for rank_tol in RANK_TOLS:
        grid = decide_grid(algebra, Theta[:, None], Upsilon[None], pi, rank_tol)
        for g, (T, U, K, _) in enumerate(points):
            expected, nullity = exact_verdict(K, rank_tol)
            if rank_tol == RANK_TOL:  # no nonsingular K has a singular value this small
                assert expected == nullity, f"point {g}: margin {margin(K, rank_tol):.3g}"
            report = degeneracy(DeformedStructure(algebra, T, U), pi, rank_tol)
            assert grid.nullity[g] == report.nullity == expected, (
                f"{algebra.name} point {g} at rank_tol {rank_tol}: decide_grid "
                f"{grid.nullity[g]}, degeneracy {report.nullity}, exact {expected}; "
                f"margin {margin(K, rank_tol):.3g}")


def test_the_points_cover_every_side_of_every_cut():
    # exactly singular points (nullity 2 and 4), points the certificate decides and points it
    # leaves to the SVD, and points that 0.05 and 0.06 decide differently
    nullities, certified, uncertified, split = set(), 0, 0, 0
    for name in NAMES:
        for conjugated in (False, True):
            for *_, K, norm_sq in grid_points(*case(name, conjugated)):
                nullity = exact_verdict(K, RANK_TOL)[1]
                nullities.add(nullity)
                certified += norm_sq <= Fraction(_CERTIFIED_SQ)
                uncertified += norm_sq > Fraction(_CERTIFIED_SQ) and nullity == 0
                split += exact_verdict(K, 0.05)[0] != exact_verdict(K, 0.06)[0]
    assert nullities == {0, 2, 4}
    assert certified >= 20 and uncertified >= 20 and split >= 1


def exact_cocycle(algebra, Theta):
    """Whether sympy's delta2 Theta, over QQ from the float entries, is zero."""
    n = algebra.dim
    T = sympy.Matrix(n, n, [sympy.Rational(Fraction(x)) for x in Theta.ravel()])
    f = [sympy.Matrix(n, n, [sympy.Integer(int(x)) for x in fm.ravel()]) for fm in algebra.f]
    return all(sum(-T[k, c] * f[k][a, b] + T[k, b] * f[k][a, c] - T[k, a] * f[k][b, c]
                   for k in range(n)) == 0
               for a in range(n) for b in range(n) for c in range(n))


def exactly_asymmetric(A):
    return not np.array_equal(A, -A.T)  # dyadic entries: A + A^T is exact


@functools.cache
def admission_case(conjugated):
    """(algebra, Theta (12, N, N)) on so3 + R or its conjugate: dyadic antisymmetric Thetas,
    half of them with the mixed column (so3, R) zeroed, so that cocycles and non-cocycles mix.
    The conjugate's Thetas are P^T Theta P in its basis e'_a = P[d, a] e_d."""
    algebra = so3_plus_center()
    rng = np.random.default_rng(25)
    Theta = np.array([antisymmetric(rng, 4, 16) for _ in range(12)])
    Theta[::2, :3, 3], Theta[::2, 3, :3] = 0.0, 0.0
    if conjugated:
        algebra = conjugate(algebra)
        P = (np.eye(4) + np.eye(4, k=1)) @ (np.eye(4) + np.eye(4, k=-1))
        Theta = P.T @ Theta @ P
    return algebra, Theta


@pytest.mark.parametrize("conjugated", [False, True])
def test_admission_verdict_equals_the_exact_one(conjugated):
    algebra, Theta = admission_case(conjugated)
    verdicts = [exact_cocycle(algebra, T) for T in Theta]
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur
    for g, (T, cocycle) in enumerate(zip(Theta, verdicts)):
        try:
            DeformedStructure(algebra, T)
        except NotACocycle:
            assert not cocycle, f"{algebra.name} Theta {g}: an exact cocycle rejected"
        else:
            assert cocycle, f"{algebra.name} Theta {g}: admitted, but exact delta2 is not zero"


#: (faults, the check that the first failing point fails): "cocycle" k puts a non-cocycle at
#: Theta row k, "Theta" k and "Upsilon" k add an exact asymmetry to that row; grid point
#: 3 t + u pairs Theta row t with Upsilon row u
FAULTS = [
    ((), None),
    ((("cocycle", 2),), "Theta is not a two-cocycle"),
    ((("Theta", 1), ("cocycle", 2)), "Theta fails antisymmetry"),
    ((("cocycle", 1), ("Upsilon", 2)), "Upsilon fails antisymmetry"),  # point 2 before point 3
    ((("Upsilon", 1), ("cocycle", 0)), "Theta is not a two-cocycle"),  # point 0 before point 1
    ((("cocycle", 0), ("Upsilon", 0)), "Upsilon fails antisymmetry"),  # antisymmetry first
    ((("cocycle", 1), ("Theta", 1)), "Theta fails antisymmetry"),  # antisymmetry first
    ((("Upsilon", 0), ("Theta", 0)), "Theta fails antisymmetry"),  # Theta before Upsilon
]


@pytest.mark.parametrize("faults, first", FAULTS)
@pytest.mark.parametrize("conjugated", [False, True])
def test_broadcast_grid_raises_at_the_exact_first_failing_point(conjugated, faults, first):
    # a (4, 1, N, N) Theta column against a (1, 3, N, N) Upsilon row
    algebra, Thetas = admission_case(conjugated)
    cocycles = [T for T in Thetas if exact_cocycle(algebra, T)]
    others = [T for T in Thetas if not exact_cocycle(algebra, T)]
    rng = np.random.default_rng(len(faults))
    Theta = np.array(cocycles[:4])
    Upsilon = np.array([antisymmetric(rng, 4, 8) for _ in range(3)])
    for kind, k in faults:
        if kind == "cocycle":
            Theta[k] = others[k]
        else:
            i, j = rng.choice(4, 2, replace=False)
            (Theta if kind == "Theta" else Upsilon)[k, i, j] += rng.integers(1, 9) / 8.0
    for T, U in ((T, U) for T in Theta for U in Upsilon):  # grid order, exact verdicts
        if exactly_asymmetric(T) or exactly_asymmetric(U) or not exact_cocycle(algebra, T):
            break
    else:
        assert first is None
        decide_grid(algebra, Theta[:, None], Upsilon[None], np.zeros(4))
        return
    error = NotAntisymmetric if exactly_asymmetric(T) or exactly_asymmetric(U) else NotACocycle
    with pytest.raises(error) as grid:
        decide_grid(algebra, Theta[:, None], Upsilon[None], np.zeros(4))
    with pytest.raises(error) as point:
        DeformedStructure(algebra, T, U)
    assert str(grid.value) == str(point.value)
    assert str(grid.value).startswith(first)  # the case the faults were placed to make
