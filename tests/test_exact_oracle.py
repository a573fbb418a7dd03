"""An exact oracle for the K verdict: sympy's rank of K = I + C(pi) Upsilon at dyadic points.

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
"""
import functools
from fractions import Fraction

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from liedeform.algebra import LieAlgebra, get_algebra
from liedeform.phase_space import (_CERTIFIED_SQ, RANK_TOL, DeformedStructure, decide_grid,
                                   degeneracy)

from conftest import registry_algebras

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
