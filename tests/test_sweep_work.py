"""The factored sweep: each matrix admitted once, the SVD only where the certificate cannot decide.

``liedeform sweep`` builds Theta once per point of the theta and xi axes' own grid and Upsilon
once per point of the upsilon axes' grid, as stacks with a size-1 dimension on every other axis
that broadcast to the grid.  One ``_admit`` call on the two stacks checks each of their matrices
once and raises at the first failing grid point; the certificate ||C Upsilon||_F^2 <= 0.81
decides a point without an SVD wherever 1.9 rank_tol < 0.1.  The property test compares the
sweep's bytes, exit code and stderr with the full-grid construction the factoring replaced; the
work counts pin how much of that work is left, counting every matrix of a stack, whatever its
number of dimensions.
"""
import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liedeform import cli, cohomology
from liedeform.algebra import get_algebra, load_algebra, so3
from liedeform.cohomology import _admit, delta1_scalar
from liedeform.errors import LieDeformError
from liedeform.phase_space import DeformedStructure, degeneracy

SO3_PLUS_R = np.zeros((4, 4, 4))
SO3_PLUS_R[:3, :3, :3] = so3().f
#: structure constants by name: the registry algebras and so3 + R, read from a spec file
ALGEBRAS = {**{name: get_algebra(name).f for name in ("abelian1", "abelian2", "abelian3",
                                                      "abelian4", "so3", "sl2r", "heisenberg",
                                                      "se2")},
            "so3+R": SO3_PLUS_R}
VALUES = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                   st.floats(-2.5, 2.5, allow_subnormal=False))
RANK_TOLS = [None, "1e-10", "0.05", "0.06", "0.5"]  # 1.9 rank_tol < 0.1 below about 0.0526


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The so3 + R spec file, whose theta axes on index 3 break the cocycle condition."""
    path = tmp_path_factory.mktemp("sweep")
    (path / "so3r.json").write_text(json.dumps({"name": "so3+R", "dim": 4,
                                                "f": SO3_PLUS_R.tolist()}))
    return path


def reference(argv):
    """(exit code, stderr, CSV) of a sweep built, admitted and decided point by point on the
    full grid, as the CLI did before the factoring: one DeformedStructure and degeneracy each."""
    args = cli._parser().parse_args(cli._join_negative_values(argv))
    try:
        algebra = (load_algebra(args.algebra) if os.path.exists(args.algebra)
                   else get_algebra(args.algebra))
        base = cli.resolve_structure(args, algebra)
        n = algebra.dim
        pi = cli.parse_vector(args.pi0, n, "--pi0") if args.pi0 else np.zeros(n)
        axes = [cli.parse_axis(spec) for spec in args.axis]
        columns = [g.ravel() for g in np.meshgrid(*[v for _, _, v in axes], indexing="ij")]
        size = int(np.prod([len(v) for _, _, v in axes]))
        Theta, Upsilon = (np.repeat(A[None], size, axis=0) for A in (base.Theta, base.Upsilon))
        xi = np.zeros((size, n))
        for (kind, indices, _), column in zip(axes, columns):
            if kind == "xi":
                xi[:, indices[0]] = column
            else:
                i, j = indices
                target = Theta if kind == "theta" else Upsilon
                target[:, i, j], target[:, j, i] = column, -column
        if any(kind == "xi" for kind, _, _ in axes):
            Theta = Theta + delta1_scalar(algebra, xi)
        _admit(algebra, Theta, Upsilon)
        text = ",".join(["index"] + [f"{kind}_" + "_".join(map(str, indices))
                                     for kind, indices, _ in axes]
                        + ["rank", "nullity", "poisson_qq", "poisson_pp"]) + "\r\n"
        for g in range(size):
            report = degeneracy(DeformedStructure(algebra, Theta[g], Upsilon[g]), pi,
                                args.rank_tol)
            cells = ("%.17g,%.17g" % (report.poisson[0, 1], report.poisson[n, n + 1])
                     if report.nullity == 0 and n >= 2 else ",")
            text += ("%d," + "%.17g," * len(axes) + "%d,%d,%s\r\n") % (
                g, *[float(c[g]) for c in columns], report.rank, report.nullity, cells)
    except LieDeformError as exc:
        return 2, f"error: {exc}\n", None
    return 0, "", text.encode()


def run_sweep(argv):
    """(exit code, stderr, CSV or None) of cli.main on argv, whose last item is the output."""
    if os.path.exists(argv[-1]):
        os.remove(argv[-1])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if not os.path.exists(argv[-1]):
        return code, err.getvalue(), None
    with open(argv[-1], "rb") as fh:
        return code, err.getvalue(), fh.read()


@st.composite
def sweeps(draw):
    """Sweep options on a registry algebra or so3 + R: axes, base deformation, --pi0, --rank-tol."""
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    n = len(ALGEBRAS[name])
    argv = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["xi"] if n < 2 else ["theta", "upsilon", "xi"]))
        size = 1 if kind == "xi" else 2
        indices = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
        start, stop = draw(VALUES), draw(VALUES)
        count = draw(st.integers(0, 5))
        argv += ["--axis", f"{kind}:{','.join(map(str, indices))}={start!r}:{stop!r}:{count}"]
    base = draw(st.sampled_from([None, "Upsilon", "Theta", "xi"]))
    deformation = None
    if base is not None:
        entries = draw(st.lists(VALUES, min_size=n * n, max_size=n * n))
        A = np.array(entries).reshape(n, n)
        xi = A[0] if base != "Upsilon" else np.zeros(n)
        Theta = -np.einsum('m,mab->ab', xi, ALGEBRAS[name])  # a coboundary, so a cocycle
        deformation = {"Upsilon": {"Upsilon": (A - A.T).tolist()},
                       "Theta": {"Theta": Theta.tolist(), "Upsilon": (0.5 * (A - A.T)).tolist()},
                       "xi": {"xi": xi.tolist()}}[base]
    pi0 = draw(st.none() | st.lists(VALUES, min_size=n, max_size=n))
    if pi0 is not None:
        argv += ["--pi0=" + ",".join(map(repr, pi0))]
    rank_tol = draw(st.sampled_from(RANK_TOLS))
    if rank_tol is not None:
        argv += ["--rank-tol", rank_tol]
    return name, deformation, argv


def check_against_reference(workdir, name, deformation, argv):
    algebra = str(workdir / "so3r.json") if name == "so3+R" else name
    argv = ["sweep", "--algebra", algebra, *argv]
    if deformation is not None:
        path = workdir / "deformation.json"
        path.write_text(json.dumps(deformation))
        argv += ["--deformation", str(path)]
    expected = reference(argv)
    assert run_sweep(argv + ["-o", str(workdir / "sweep.csv")]) == expected
    return expected


@settings(max_examples=150, deadline=None)
@given(case=sweeps())
# a theta axis through zero on so3 + R: the first nonzero point fails the cocycle condition
@example(case=("so3+R", None, ["--axis", "upsilon:0,1=-1:1:3", "--axis", "theta:0,3=-1:1:3"]))
# an empty axis before a non-empty one, as the golden sweep_empty
@example(case=("abelian2", None, ["--axis", "theta:0,1=0:2:0", "--axis", "upsilon:0,1=0:1:3"]))
# the SVD with and without the certificate, on both sides of 1.9 rank_tol < 0.1; at 0.5, the
# points with ab = 1/2 are degenerate although ||C Upsilon||_F^2 = 1/2 passes the certificate
@example(case=("abelian2", None, ["--axis", "theta:0,1=0:2:9", "--axis", "upsilon:0,1=0:2:9",
                                  "--rank-tol", "0.05"]))
@example(case=("abelian2", None, ["--axis", "theta:0,1=0:2:9", "--axis", "upsilon:0,1=0:2:9",
                                  "--rank-tol", "0.5"]))
# a theta axis and an xi axis that both move Theta[0, 1]: delta1 of xi_2 e^2 is -xi_2 there
@example(case=("so3", None, ["--axis", "theta:0,1=-1:1:3", "--axis", "xi:2=-2:2:4"]))
# an xi axis whose only value is 0: delta1(0) is still added, with its signed zeros
@example(case=("so3", {"xi": [0.5, -1.0, 2.0]}, ["--axis", "xi:1=0:0:1",
                                                   "--axis", "theta:0,2=0:0:1"]))
# one axis of each kind, the upsilon axis first: Theta's stack has size 1 on its dimension
@example(case=("sl2r", None, ["--axis", "upsilon:0,2=-1:1:3", "--axis", "xi:1=-1:1:2",
                              "--axis", "theta:0,1=0:2:3", "--pi0=0.5,-1,2"]))
def test_factored_sweep_equals_full_grid(workdir, case):
    check_against_reference(workdir, *case)


@pytest.mark.parametrize("name, axes, error", [
    ("so3", ["--axis", "upsilon:0,1=-1:1:3"], "Upsilon fails antisymmetry"),
    ("so3", ["--axis", "theta:0,1=0:0:0", "--axis", "upsilon:0,1=-1:1:3"], None),
    # the Theta row of point 1 breaks the cocycle condition, but point 0 fails first
    ("so3+R", ["--axis", "theta:0,3=0:1:2", "--axis", "upsilon:0,1=0:1:2"],
     "Upsilon fails antisymmetry"),
    # Upsilon row 1 fails, but point 1 pairs Upsilon row 0 with the Theta row that fails first
    ("so3+R", ["--axis", "upsilon:0,1=1e6:0:2", "--axis", "theta:0,3=0:1:2"],
     "Theta is not a two-cocycle")])
def test_an_upsilon_row_that_fails_antisymmetry(workdir, name, axes, error):
    # the base Upsilon passes at its own scale (1e6); an axis that overwrites the large entry
    # drops the scale, and its 5e-7 asymmetry then fails -- except on an empty grid
    n = len(ALGEBRAS[name])
    Upsilon = np.zeros((n, n))
    Upsilon[0, 1], Upsilon[1, 0] = 1e6, -1e6
    Upsilon[0, 2], Upsilon[2, 0] = 1.0, -1.0 + 5e-7
    code, err, _ = check_against_reference(workdir, name, {"Upsilon": Upsilon.tolist()}, axes)
    if error is None:
        assert (code, err) == (0, "")
    else:
        assert code == 2 and err.startswith(f"error: {error}: residual")


ABELIAN4 = ["sweep", "--algebra", "abelian4",
            "--axis", "theta:1,3=-2:2:13", "--axis", "upsilon:1,3=-2:2:13"]


def count_delta2(monkeypatch):
    """The matrices passed to cohomology._delta2, the cocycle residual of every admission."""
    counts = []
    delta2 = cohomology._delta2

    def counted(algebra, Theta):
        counts.append(Theta[..., 0, 0].size)
        return delta2(algebra, Theta)

    monkeypatch.setattr(cohomology, "_delta2", counted)
    return counts


def count_svd(monkeypatch):
    """The K matrices whose singular values _nullity asks of np.linalg.svd."""
    counts = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            counts.append(len(a) if a.ndim == 3 else 1)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return counts


def test_admits_each_distinct_matrix_once(monkeypatch, tmp_path):
    counts = count_delta2(monkeypatch)
    assert cli.main(ABELIAN4 + ["-o", str(tmp_path / "grid.csv")]) == 0
    assert sum(counts) <= 13 + 1  # the 13 Theta of the theta axis and the base; not 169 + 1


@pytest.mark.parametrize("rank_tol", [None, "0.2"])
def test_svd_only_where_the_certificate_cannot_decide(monkeypatch, tmp_path, rank_tol):
    counts = count_svd(monkeypatch)
    argv = ABELIAN4 + (["--rank-tol", rank_tol] if rank_tol else [])
    assert cli.main(argv + ["-o", str(tmp_path / "grid.csv")]) == 0
    # on abelian4 at pi = 0, C Upsilon has the two entries -ab: ||C Upsilon||_F^2 = 2 a^2 b^2
    a, b = np.meshgrid(np.linspace(-2, 2, 13), np.linspace(-2, 2, 13))
    uncertified = int(np.sum(2 * a**2 * b**2 > 0.81))
    assert uncertified == 104
    # 1.9 * 0.2 > 0.1: the certificate no longer clears the cut, so every point is decomposed
    assert counts == [uncertified if rank_tol is None else 169]
