"""Workload decks: seeded inputs, the operations that call liedeform, and the
benchmark's own checks of every operation's output.

A workload is a *deck* of operation specs with a fixed composition; the seed
draws the numbers inside each spec and the order of the deck.  The timed loop
replays the deck (reshuffled on each pass) until the time budget is spent, so
every seed exercises the same mix at the same cost.

Every operation calls liedeform's public API (or ``liedeform.cli.main``) with
generated inputs only.  The checks never use the code path they check: they
recompute energies, Casimirs, coboundaries, Lie derivatives and the 2N x 2N
two-form matrix and its SVD here, with numpy, and compare.  The Theta = 0
rigid-body members are compared pointwise with ``euler_reference``, the
package's independent so(3) oracle.

Three fixed operations reproduce the known defects listed in ROADMAP.md.  They
run in every deck.  Their outcome is ``defect_reproduced`` (counted as failed)
or ``defect_fixed``; any other outcome is an unexpected failure.
"""
from __future__ import annotations

import io
import json
import os
import sys

import numpy as np

import liedeform as ld

OK = "ok"
FAILED = "failed"
DEFECT_REPRODUCED = "defect_reproduced"
DEFECT_FIXED = "defect_fixed"

RANK_TOL = 1e-10        # the CLI's default relative singular-value cutoff
DT = 0.01               # integrator step of every ensemble trajectory
ENERGY_TOL = 1e-5       # relative drift of H = pi.I_inv.pi / 2 (RK4 reaches 3e-7 here)
CASIMIR_TOL = 1e-7      # relative drift of |pi - xi|^2 on so3, Upsilon = 0 (RK4: 5e-10)
EULER_TOL = 1e-9        # pointwise |pi - pi_euler| / max |pi_euler| on Theta = 0 members
GROUP_TOL = 1e-10       # |g^T g - I| and |det g - 1| for so3 reconstructions
ISOTROPY_TOL = 1e-9     # Lie derivatives along an isotropy basis vector, relative
CLEAR_MARGIN = 1e-3     # generated singular values stay this far (as a factor) from the cutoff
SWEEP_POINTS = 13       # every sweep is SWEEP_POINTS x SWEEP_POINTS over [-2, 2]
SWEEP_AXIS = f"-2:2:{SWEEP_POINTS}"


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def coboundary(f, xi):
    """Theta_ab = -xi_m f[m][a][b]."""
    return -np.einsum("m,mab->ab", np.asarray(xi, float), f)


def omega(f, theta, upsilon, pi):
    """The 2N x 2N two-form matrix [[pi.f + Theta, I], [-I, Upsilon]]."""
    n = f.shape[0]
    C = np.einsum("m,mab->ab", np.asarray(pi, float), f) + theta
    return np.block([[C, np.eye(n)], [-np.eye(n), upsilon]])


def svd_rank(M):
    """(rank, singular values) under the relative cutoff RANK_TOL * sigma_max."""
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > RANK_TOL * s[0])), s


def ambiguous(s) -> bool:
    """True when a singular value lies within a factor 1/CLEAR_MARGIN of the cutoff.

    Inputs are generated away from the cutoff, so that the verdict does not
    depend on which nondegeneracy rule the program applies.
    """
    s = np.asarray(s)
    cutoff = RANK_TOL * s[..., :1]
    return bool(np.any((s > CLEAR_MARGIN * cutoff) & (s < cutoff / CLEAR_MARGIN)))


def lie_derivative_stack(f, theta, upsilon, inertia_inv=None):
    """Columns u = e_i of (L_u Theta, L_u Upsilon[, L_u I_inv]), flattened."""
    n = f.shape[0]
    cols = []
    for i in range(n):
        ad = f[:, i, :]                        # (ad_{e_i})^m_n = f[m][i][n]
        parts = [ad.T @ theta + theta @ ad, -(ad @ upsilon + upsilon @ ad.T)]
        if inertia_inv is not None:
            parts.append(-(ad @ inertia_inv + inertia_inv @ ad.T))
        cols.append(np.concatenate([p.ravel() for p in parts]))
    return np.array(cols).T


def isotropy_problem(f, theta, upsilon, inertia_inv, dimension, basis) -> str:
    """Why an isotropy basis is wrong, or "" when it is right.

    It must be orthonormal, annihilate every Lie derivative, and have the
    dimension of this module's own null space of the stacked derivatives.
    """
    n = f.shape[0]
    A = lie_derivative_stack(f, theta, upsilon, inertia_inv)
    s = np.linalg.svd(A, compute_uv=False)
    dim = int(np.sum(s <= RANK_TOL * s[0])) if s[0] > 0 else n
    basis = np.asarray(basis, float).reshape(-1, n)
    resid = float(np.max(np.abs(A @ basis.T), initial=0.0))
    gram = float(np.max(np.abs(basis @ basis.T - np.eye(len(basis))), initial=0.0))
    scale = max(float(np.max(np.abs(A), initial=0.0)), 1.0)
    if dimension != dim or resid > ISOTROPY_TOL * scale or gram > 1e-9:
        return f"isotropy dim {dimension} vs {dim}, residual {resid:.1e}, gram {gram:.1e}"
    return ""


def random_antisymmetric(rng, n, scale=1.0):
    A = rng.normal(size=(n, n))
    return scale * (A - A.T) / 2.0


def vector_arg(v) -> str:
    """Comma-separated floats; pass as ``--opt=value`` since it may start with '-'."""
    return ",".join(repr(float(x)) for x in v)


def whitehead_dims(name: str) -> dict:
    """Z2, B2, H2, H1 known in closed form.

    Semisimple so3 and sl2r: H1 = H2 = 0 (Whitehead's lemmas), every 2-form
    a coboundary.  Abelian R^n: every 2-form a cocycle, none a coboundary,
    H1 = n.  Heisenberg: B2 = span(e^1 ^ e^2), H1 = 2.  se(2): B2 has
    dimension 2, H1 = 1 (the derived algebra is the translations).
    """
    if name.startswith("abelian"):
        n = int(name[len("abelian"):])
        m = n * (n - 1) // 2
        return {"Z2": m, "B2": 0, "H2": m, "H1": n}
    return {"so3": {"Z2": 3, "B2": 3, "H2": 0, "H1": 0},
            "sl2r": {"Z2": 3, "B2": 3, "H2": 0, "H1": 0},
            "heisenberg": {"Z2": 3, "B2": 1, "H2": 2, "H1": 2},
            "se2": {"Z2": 3, "B2": 2, "H2": 1, "H1": 1}}[name]


def is_exact(f, theta) -> bool:
    """Least-squares primitive of Theta with this module's own coboundary."""
    n = f.shape[0]
    A = -f.reshape(n, n * n).T                 # xi -> vec(delta xi)
    xi = np.linalg.lstsq(A, theta.ravel(), rcond=None)[0]
    return float(np.max(np.abs(A @ xi - theta.ravel()), initial=0.0)) \
        <= 1e-9 * max(float(np.max(np.abs(theta), initial=0.0)), 1.0)


def _result(status, detail="", **units):
    return status, detail, units


def _rel_drift(values):
    values = np.asarray(values, float)
    return float(np.max(np.abs(values - values[0])) / max(abs(values[0]), 1e-300))


# ---------------------------------------------------------------------------
# ensembles: one op is one integrate call
# ---------------------------------------------------------------------------

def run_integrate(spec, tmp):
    algebra = ld.get_algebra(spec["algebra"])
    structure = ld.DeformedStructure(algebra, spec["theta"], spec["upsilon"])
    inertia = ld.InertiaTensor.diagonal(spec["inertia"])
    sub = extra = None
    if spec["monitors"]:
        # as `liedeform simulate` does: isotropy directions become monitors
        sub = ld.isotropy_subalgebra(algebra, structure.Theta, structure.Upsilon,
                                     inertia.I_inv)
        extra = {f"isotropy_{i}": sub.basis[i] for i in range(sub.dimension)}
    rep = ld.so3_vector_representation() if spec["rep"] == "so3" else None
    traj = ld.integrate(structure, inertia, spec["pi0"], T=spec["steps"] * DT, dt=DT,
                        rep=rep, extra_monitors=extra)
    return traj, sub


def check_integrate(spec, out):
    traj, sub = out
    f = ld.get_algebra(spec["algebra"]).f
    steps = len(traj.times) - 1
    units = {"steps": steps, "steps_requested": spec["steps"]}
    expected_len = spec["steps"] + 1 if traj.degenerate_at is None else None
    if expected_len is not None and traj.pis.shape != (expected_len, f.shape[0]):
        return _result(FAILED, f"trajectory shape {traj.pis.shape}", **units)
    if not np.array_equal(traj.pis[0], spec["pi0"]):
        return _result(FAILED, "trajectory does not start at pi0", **units)
    d = np.asarray(spec["inertia"])
    energy = 0.5 * np.einsum("ti,i,ti->t", traj.pis, d, traj.pis)
    if _rel_drift(energy) > ENERGY_TOL:
        return _result(FAILED, f"energy drift {_rel_drift(energy):.3e}", **units)
    if spec["xi"] is not None:
        sigma = traj.pis - spec["xi"]
        casimir = np.einsum("ti,ti->t", sigma, sigma)
        if _rel_drift(casimir) > CASIMIR_TOL:
            return _result(FAILED, f"casimir drift {_rel_drift(casimir):.3e}", **units)
    if spec["euler"]:
        ref = ld.euler_reference(ld.InertiaTensor.diagonal(d), spec["pi0"],
                                 T=spec["steps"] * DT, dt=DT)
        err = float(np.max(np.abs(traj.pis - ref.pis)) / np.max(np.abs(ref.pis)))
        if traj.pis.shape != ref.pis.shape or err > EULER_TOL:
            return _result(FAILED, f"euler_reference mismatch {err:.3e}", **units)
    if spec["rep"] == "so3":
        gs = traj.gs
        orth = float(np.max(np.abs(np.einsum("tji,tjk->tik", gs, gs) - np.eye(3))))
        det = float(np.max(np.abs(np.linalg.det(gs) - 1.0)))
        if gs.shape != (steps + 1, 3, 3) or orth > GROUP_TOL or det > GROUP_TOL:
            return _result(FAILED, f"so3 reconstruction orth {orth:.1e} det {det:.1e}",
                           **units)
    if sub is not None:
        problem = isotropy_problem(f, spec["theta"], spec["upsilon"], np.diag(d),
                                   sub.dimension, sub.basis)
        if problem:
            return _result(FAILED, problem, **units)
    return _result(OK, **units)


def _ensemble_member(rng, algebra, theta_kind, upsilon, steps, rep):
    f = ld.get_algebra(algebra).f
    n = f.shape[0]
    pi0 = rng.normal(size=n)
    pi0 *= rng.uniform(0.5, 2.0) / np.linalg.norm(pi0)
    inertia = rng.uniform(0.3, 1.5, size=n)
    xi = None
    if theta_kind == "zero":
        xi = np.zeros(n)
        theta = np.zeros((n, n))
    elif theta_kind == "exact":
        xi = rng.normal(scale=0.5, size=n)
        theta = coboundary(f, xi)
    else:                                      # a generic, non-exact cocycle
        theta = random_antisymmetric(rng, n, 0.5)
    if upsilon:
        # keep |C(pi) Upsilon| <= 1/2 along the whole energy level, so that
        # K = I + C Upsilon stays invertible and no trajectory degenerates
        pi_max = np.sqrt(np.sum(inertia * pi0 ** 2) / inertia.min())
        c_max = pi_max * np.sqrt(sum(np.linalg.norm(f[m], 2) ** 2 for m in range(n))) \
            + np.linalg.norm(theta, 2)
        R = random_antisymmetric(rng, n)
        ups = R * (0.5 / (max(c_max, 1.0) * np.linalg.norm(R, 2)))
    else:
        ups = np.zeros((n, n))
    return {"kind": "integrate", "algebra": algebra, "theta": theta, "upsilon": ups,
            "inertia": inertia, "pi0": pi0, "steps": steps, "rep": rep,
            "monitors": upsilon, "euler": theta_kind == "zero" and not upsilon,
            "xi": xi if (algebra == "so3" and not upsilon) else None}


def step_ladder(first, rung):
    """48 trajectory lengths, first + rung * k: op latencies form a continuum,
    so the median op sits inside it rather than at a gap between two lengths."""
    return [first + rung * k for k in range(48)]


def rigid_deck(rng):
    """so3, Upsilon = 0: one trajectory per rung of the step ladder.

    Every 4th rung (12) reconstructs g through so3_vector_representation;
    every 6th (8) has Theta = 0 and is checked against euler_reference; the
    rest have Theta = delta xi.  The seed draws pi0, inertia and xi.
    """
    deck = []
    for k, steps in enumerate(step_ladder(20, 4)):          # 20 to 208 steps
        kind = "zero" if k % 6 == 0 else "exact"
        deck.append(_ensemble_member(rng, "so3", kind, False, steps,
                                     "so3" if k % 4 == 1 else None))
    return deck


def deformed_deck(rng):
    """Upsilon != 0 on sl2r, se2, heisenberg and so3, the ladder dealt round-robin,
    plus the sl2r reconstruction defect op.

    Theta is delta xi, except on half of the heisenberg members (H2 != 0),
    which carry a non-exact cocycle.  Three so3 members reconstruct g.  The
    ladder is half the rigid one (10 to 104 steps): a step costs about twice
    as much here, and a short pass gives each op more passes in a run.
    """
    deck = []
    algebras = ("sl2r", "se2", "heisenberg", "so3")
    for k, steps in enumerate(step_ladder(10, 2)):
        algebra = algebras[k % 4]
        kind = "generic" if algebra == "heisenberg" and (k // 4) % 2 else "exact"
        rep = "so3" if algebra == "so3" and k % 16 == 3 else None
        deck.append(_ensemble_member(rng, algebra, kind, True, steps, rep))
    deck.append(defect_sl2r_spec(rng))
    return deck


# ---------------------------------------------------------------------------
# defect: group reconstruction on sl2r projects onto O(2)
# ---------------------------------------------------------------------------

def defect_sl2r_spec(rng):
    """pi0 = (1,0,0) is an equilibrium with eta = h, so g(1) = exp(rho(h)) = diag(e, 1/e)."""
    ups = np.zeros((3, 3))
    ups[0, 1], ups[1, 0] = 0.25, -0.25
    return {"kind": "defect_sl2r_reconstruction", "upsilon": ups, "steps": 100}


def run_defect_sl2r(spec, tmp):
    algebra = ld.get_algebra("sl2r")
    structure = ld.DeformedStructure(algebra, np.zeros((3, 3)), spec["upsilon"])
    rep = np.zeros((3, 2, 2))
    rep[0] = np.diag([1.0, -1.0])              # rho(h)
    rep[1][0, 1] = 1.0                         # rho(e) = E12
    rep[2][1, 0] = 1.0                         # rho(f) = E21
    return ld.integrate(structure, ld.InertiaTensor.identity(3), [1.0, 0.0, 0.0],
                        T=spec["steps"] * DT, dt=DT, rep=rep)


def check_defect_sl2r(spec, traj):
    units = {"steps": len(traj.times) - 1, "steps_requested": spec["steps"]}
    if traj.gs is None or traj.degenerate_at is not None:
        return _result(FAILED, "no complete reconstruction", **units)
    g = traj.gs[-1]
    if np.max(np.abs(g - np.diag([np.e, 1.0 / np.e]))) <= 1e-6:
        return _result(DEFECT_FIXED, "g(1) = diag(e, 1/e)", **units)
    if np.max(np.abs(g - np.eye(2))) <= 1e-6:
        return _result(DEFECT_REPRODUCED, "g(1) = I instead of diag(e, 1/e)", **units)
    return _result(FAILED, f"g(1) = {g.tolist()}", **units)


# ---------------------------------------------------------------------------
# analysis_cli: in-process CLI calls
# ---------------------------------------------------------------------------

CLI_ALGEBRAS = ("so3", "sl2r", "heisenberg", "se2", "abelian2", "abelian3", "abelian4")


def call_cli(argv):
    """liedeform.cli.main(argv) with stderr captured; returns (exit code, stderr).

    The CLI module is imported here, not at the top, because ``import
    liedeform`` does not import it: only workloads that call the CLI pay for it.
    """
    from liedeform import cli
    saved, sys.stderr = sys.stderr, io.StringIO()
    try:
        code = cli.main(argv)
        return code, sys.stderr.getvalue()
    finally:
        sys.stderr = saved


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _deformation(rng, tmp, tag, f, xi=None, theta=None, upsilon=None):
    """A deformation: either inline --xi, or a spec file with Theta and Upsilon."""
    n = f.shape[0]
    if xi is not None:
        return {"args": ["--xi=" + vector_arg(xi)], "theta": coboundary(f, xi),
                "upsilon": np.zeros((n, n))}
    theta = np.zeros((n, n)) if theta is None else theta
    upsilon = np.zeros((n, n)) if upsilon is None else upsilon
    path = os.path.join(tmp, f"deformation-{tag}.json")
    _write_json(path, {"Theta": theta.tolist(), "Upsilon": upsilon.tolist()})
    return {"args": ["--deformation", path], "theta": theta, "upsilon": upsilon}


def _omega_point(rng, tmp, tag, f, degenerate, inline):
    """Inputs for `omega` whose verdict is far from the rank cutoff."""
    n = f.shape[0]
    if degenerate:
        # Upsilon = Theta^{-1}-like on one pair of an abelian algebra: K = 0 there
        a = float(rng.choice([0.5, 2.0, 4.0]))
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        theta, ups = np.zeros((n, n)), np.zeros((n, n))
        theta[i, j], theta[j, i] = a, -a
        ups[i, j], ups[j, i] = 1.0 / a, -1.0 / a
        return _deformation(rng, tmp, tag, f, theta=theta, upsilon=ups), np.zeros(n)
    while True:
        pi = rng.normal(size=n)
        if inline:
            deformation = _deformation(rng, tmp, tag, f, xi=rng.normal(scale=0.5, size=n))
        else:
            deformation = _deformation(rng, tmp, tag, f, theta=coboundary(f, rng.normal(size=n)),
                                       upsilon=random_antisymmetric(rng, n, 0.3))
        M = omega(f, deformation["theta"], deformation["upsilon"], pi)
        rank, s = svd_rank(M)
        if rank == 2 * n and not ambiguous(s):
            return deformation, pi


def _sweep_spec(rng, tmp, family, tag):
    """A sweep whose two axes cross the degenerate locus.

    The seed permutes indices and signs only, so the number of degenerate
    grid points (and with it the cost) is the same for every seed.
    """
    if family in ("abelian2", "abelian4", "heisenberg"):
        n = 3 if family == "heisenberg" else int(family[-1])
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        axes = [f"theta:{i},{j}={SWEEP_AXIS}", f"upsilon:{i},{j}={SWEEP_AXIS}"]
        base = None
        name = family
    else:                                      # so3: fixed Upsilon, two xi axes
        name = "so3"
        k = int(rng.integers(3))
        a, b = (k + 1) % 3, (k + 2) % 3        # cyclic relabelling keeps so3's f
        ups = np.zeros((3, 3))
        sign = float(rng.choice([-1.0, 1.0]))
        ups[a, b], ups[b, a] = sign, -sign
        path = os.path.join(tmp, f"deformation-{tag}.json")
        _write_json(path, {"Upsilon": ups.tolist()})
        base = path
        axes = [f"xi:{k}={SWEEP_AXIS}", f"xi:{a}={SWEEP_AXIS}"]
    return {"kind": "cli_sweep", "algebra": name, "axes": axes, "deformation": base}


def analysis_deck(rng, tmp):
    """28 report ops (4 subcommands x 7 algebras), 12 sweeps, 2 defect ops.

    Three sweeps per family make the sweeps more than 10 of the deck's ops,
    so the tail percentile (10 ops beyond it) falls on a sweep.
    """
    deck = []
    for a, name in enumerate(CLI_ALGEBRAS):
        f = ld.get_algebra(name).f
        n = f.shape[0]
        tag = f"{name}-{len(deck)}"
        deck.append({"kind": "cli_validate", "algebra": name})
        if a % 2 == 0:
            d = _deformation(rng, tmp, tag + "c", f, xi=rng.normal(size=n))
        else:
            d = _deformation(rng, tmp, tag + "c", f, theta=random_antisymmetric(rng, n))
        deck.append({"kind": "cli_cohomology", "algebra": name, **d})
        degenerate = name in ("abelian2", "abelian4")
        d, pi = _omega_point(rng, tmp, tag + "o", f, degenerate, inline=a % 2 == 1)
        deck.append({"kind": "cli_omega", "algebra": name, "pi": pi, **d})
        xi = np.zeros(n)
        xi[int(rng.integers(n))] = rng.normal()
        d = _deformation(rng, tmp, tag + "i", f, xi=xi)
        inertia = None if a % 2 == 0 else rng.uniform(0.5, 1.5, size=n)
        deck.append({"kind": "cli_isotropy", "algebra": name, "inertia": inertia, **d})
    for i, family in enumerate(("abelian2", "abelian4", "heisenberg", "so3") * 3):
        deck.append(_sweep_spec(rng, tmp, family, f"sweep{i}"))
    deck.append(defect_split_spec(tmp))
    deck.append(defect_large_theta_spec(rng, tmp))
    return deck


def _out(tmp, kind):
    return os.path.join(tmp, f"out-{kind}")


def run_cli_op(spec, tmp):
    kind = spec["kind"]
    argv = [kind[len("cli_"):], "--algebra", spec["algebra"]]
    if kind == "cli_sweep":
        if spec["deformation"]:
            argv += ["--deformation", spec["deformation"]]
        for axis in spec["axes"]:
            argv += ["--axis", axis]
    elif kind != "cli_validate":
        argv += spec["args"]
    if kind == "cli_omega":
        argv += ["--pi=" + vector_arg(spec["pi"])]
    if kind == "cli_isotropy" and spec["inertia"] is not None:
        argv += ["--inertia=diag:" + vector_arg(spec["inertia"])]
    return call_cli(argv + ["-o", _out(tmp, kind)])


def _load(tmp, kind):
    with open(_out(tmp, kind)) as fh:
        return json.load(fh)


def check_cli_op(spec, out, tmp):
    kind = spec["kind"]
    code, err = out
    if code != 0:
        return _result(FAILED, f"exit {code}: {err.strip()}")
    f = ld.get_algebra(spec["algebra"]).f
    n = f.shape[0]
    if kind == "cli_validate":
        rep = _load(tmp, kind)
        ok = (rep["accepted"] and rep["dim"] == n
              and rep["antisymmetry_residual"] <= 1e-12 and rep["jacobi_residual"] <= 1e-12)
        return _result(OK if ok else FAILED, "" if ok else f"validate {rep}")
    if kind == "cli_cohomology":
        rep = _load(tmp, kind)
        theta = spec["theta"]
        scale = max(float(np.max(np.abs(theta))), 1.0)
        exact = is_exact(f, theta)
        if rep["dims"] != whitehead_dims(spec["algebra"]):
            return _result(FAILED, f"dims {rep['dims']}")
        if rep["cocycle_residual"] > 1e-12 * scale or rep["exact"] != exact:
            return _result(FAILED, f"residual {rep['cocycle_residual']}, exact {rep['exact']}")
        if exact and np.max(np.abs(coboundary(f, rep["xi"]) - theta)) > 1e-9 * scale:
            return _result(FAILED, "primitive xi does not reproduce Theta")
        return _result(OK)
    if kind == "cli_omega":
        return check_omega_report(_load(tmp, kind), f, spec["theta"], spec["upsilon"], spec["pi"])
    if kind == "cli_isotropy":
        rep = _load(tmp, kind)
        inertia_inv = None if spec["inertia"] is None else np.diag(spec["inertia"])
        problem = isotropy_problem(f, spec["theta"], spec["upsilon"], inertia_inv,
                                   rep["dimension"], rep["basis"])
        return _result(FAILED if problem else OK, problem)
    return check_sweep(spec, f, tmp)


def check_omega_report(rep, f, theta, upsilon, pi):
    """Rank by this module's SVD; Pi M = I when nondegenerate, M kernel = 0 otherwise."""
    n = f.shape[0]
    M = omega(f, theta, upsilon, pi)
    rank, s = svd_rank(M)
    if rep["rank"] != rank or rep["nullity"] != 2 * n - rank:
        return _result(FAILED, f"rank {rep['rank']} vs {rank}")
    tol = 1e-9 * s[0] / s[-1] if rank == 2 * n else 1e-9 * s[0]
    if rank == 2 * n:
        P = np.asarray(rep["poisson"], float)
        err = float(np.max(np.abs(P @ M - np.eye(2 * n))))
    else:
        K = np.asarray(rep["kernel"], float).reshape(2 * n, -1)
        err = float(np.max(np.abs(M @ K)))
        err = max(err, float(np.max(np.abs(K.T @ K - np.eye(K.shape[1])))))
    if err > tol:
        return _result(FAILED, f"Pi M = I / M kernel = 0 residual {err:.1e}")
    return _result(OK)


def _sweep_grid(spec, f):
    """Theta, Upsilon stacks for every grid point, in the CLI's row order."""
    n = f.shape[0]
    values = np.linspace(-2.0, 2.0, SWEEP_POINTS)
    base_ups = np.zeros((n, n))
    if spec["deformation"]:
        with open(spec["deformation"]) as fh:
            base_ups = np.asarray(json.load(fh)["Upsilon"], float)
    thetas, upsilons = [], []
    for v0 in values:
        for v1 in values:
            theta, ups, xi = np.zeros((n, n)), base_ups.copy(), np.zeros(n)
            for axis, v in zip(spec["axes"], (v0, v1)):
                kind, idx = axis.split("=")[0].split(":")
                idx = [int(t) for t in idx.split(",")]
                if kind == "xi":
                    xi[idx[0]] = v
                else:
                    target = theta if kind == "theta" else ups
                    target[idx[0], idx[1]], target[idx[1], idx[0]] = v, -v
            thetas.append(theta + coboundary(f, xi))
            upsilons.append(ups)
    return np.array(thetas), np.array(upsilons)


def check_sweep(spec, f, tmp):
    """Re-derive every row by this module's own stacked 2N x 2N SVD."""
    n = f.shape[0]
    with open(_out(tmp, "cli_sweep")) as fh:
        rows = fh.read().splitlines()[1:]
    thetas, upsilons = _sweep_grid(spec, f)
    g = len(thetas)
    if len(rows) != g:
        return _result(FAILED, f"{len(rows)} sweep rows, expected {g}")
    M = np.zeros((g, 2 * n, 2 * n))
    M[:, :n, :n] = thetas
    M[:, :n, n:] = np.eye(n)
    M[:, n:, :n] = -np.eye(n)
    M[:, n:, n:] = upsilons
    u, s, vt = np.linalg.svd(M)
    rank = np.sum(s > RANK_TOL * s[:, :1], axis=1)
    cells = [row.split(",") for row in rows]
    got_rank = np.array([int(c[3]) for c in cells])
    got_null = np.array([int(c[4]) for c in cells])
    if np.any(got_rank != rank) or np.any(got_null != 2 * n - rank):
        bad = int(np.argmax((got_rank != rank) | (got_null != 2 * n - rank)))
        return _result(FAILED, f"row {bad}: rank {got_rank[bad]} vs {rank[bad]}",
                       points=g, nondegenerate=int(np.sum(rank == 2 * n)))
    full = rank == 2 * n
    inv = np.einsum("gji,gj,gkj->gik", vt[full], 1.0 / s[full], u[full])   # V S^-1 U^T
    resid = np.max(np.abs(inv @ M[full] - np.eye(2 * n)), axis=(1, 2))
    cond = s[full, 0] / s[full, -1]
    qq = np.array([float(c[5]) for c, ok in zip(cells, full) if ok])
    pp = np.array([float(c[6]) for c, ok in zip(cells, full) if ok])
    err = np.maximum(np.abs(qq - inv[:, 0, 1]), np.abs(pp - inv[:, n, n + 1]))
    scale = np.max(np.abs(inv), axis=(1, 2))
    if np.any(resid > 1e-9 * cond) or np.any(err > 1e-9 * cond * scale):
        return _result(FAILED, "sweep Poisson entries disagree with the SVD inverse",
                       points=g, nondegenerate=int(full.sum()))
    if any(c[5] or c[6] for c, ok in zip(cells, full) if not ok):
        return _result(FAILED, "Poisson entries on a degenerate row",
                       points=g, nondegenerate=int(full.sum()))
    return _result(OK, points=g, nondegenerate=int(full.sum()))


# ---------------------------------------------------------------------------
# defects reproduced through the CLI
# ---------------------------------------------------------------------------

def defect_split_spec(tmp):
    """abelian2, Theta = J, Upsilon = (1 - 1e-10) J, pi = 0: omega vs simulate."""
    theta = np.array([[0.0, 1.0], [-1.0, 0.0]])
    path = os.path.join(tmp, "deformation-defect-split.json")
    _write_json(path, {"Theta": theta.tolist(), "Upsilon": ((1 - 1e-10) * theta).tolist()})
    return {"kind": "defect_degeneracy_split", "deformation": path}


def run_defect_split(spec, tmp):
    common = ["--algebra", "abelian2", "--deformation", spec["deformation"]]
    omega_out = call_cli(["omega", *common, "--pi", "0,0",
                          "-o", _out(tmp, "defect-omega")])
    simulate_out = call_cli(["simulate", *common, "--inertia", "identity",
                             "--pi0", "0,0", "--T", "0.1", "--dt", "0.01",
                             "-o", _out(tmp, "defect-simulate.csv"),
                             "--summary", _out(tmp, "defect-simulate")])
    return omega_out, simulate_out


def check_defect_split(spec, out, tmp):
    (omega_code, omega_err), (sim_code, sim_err) = out
    if omega_code != 0 or sim_code not in (0, 3):
        return _result(FAILED, f"exit codes omega {omega_code} simulate {sim_code}")
    nullity = _load(tmp, "defect-omega")["nullity"]
    summary = _load(tmp, "defect-simulate") if os.path.exists(_out(tmp, "defect-simulate")) \
        else {}
    steps = summary.get("steps", 0)
    units = {"steps": steps, "steps_requested": 10}
    sim_degenerate = sim_code == 3 or summary.get("degenerate_at") is not None
    if (nullity > 0) == sim_degenerate:
        return _result(DEFECT_FIXED, "omega and simulate agree", **units)
    if nullity > 0 and not sim_degenerate:
        return _result(DEFECT_REPRODUCED,
                       f"omega nullity {nullity} but simulate integrated {steps} steps",
                       **units)
    return _result(FAILED, f"omega nullity {nullity}, simulate exit {sim_code}", **units)


def defect_large_theta_spec(rng, tmp):
    """so3, Theta = delta xi with xi = (0,0,1e6), plus 1e-10 asymmetric noise."""
    f = ld.get_algebra("so3").f
    noise = rng.normal(size=(3, 3))
    noise *= 1e-10 / np.max(np.abs(noise + noise.T))
    theta = coboundary(f, [0.0, 0.0, 1e6]) + noise
    path = os.path.join(tmp, "deformation-defect-large.json")
    _write_json(path, {"Theta": theta.tolist()})
    return {"kind": "defect_large_theta", "deformation": path}


def run_defect_large_theta(spec, tmp):
    return call_cli(["omega", "--algebra", "so3", "--deformation", spec["deformation"],
                     "-o", _out(tmp, "defect-large")])


def check_defect_large_theta(spec, out, tmp):
    code, err = out
    if code == 0:
        rep = _load(tmp, "defect-large")
        if rep["rank"] + rep["nullity"] == 6:
            return _result(DEFECT_FIXED, "admitted")
        return _result(FAILED, f"rank {rep['rank']} nullity {rep['nullity']}")
    if code == 2 and "antisymmetr" in err:
        return _result(DEFECT_REPRODUCED, "rejected as not antisymmetric (exit 2)")
    return _result(FAILED, f"exit {code}: {err.strip()}")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

WORKLOADS = ("rigid_ensemble", "deformed_ensemble", "analysis_cli")


def make_deck(workload: str, seed: int, tmp: str) -> list:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "rigid_ensemble":
        deck = rigid_deck(rng)
    elif workload == "deformed_ensemble":
        deck = deformed_deck(rng)
    else:
        deck = analysis_deck(rng, tmp)
    return [deck[i] for i in rng.permutation(len(deck))]


def run_op(spec, tmp):
    kind = spec["kind"]
    if kind == "integrate":
        return run_integrate(spec, tmp)
    if kind == "defect_sl2r_reconstruction":
        return run_defect_sl2r(spec, tmp)
    if kind == "defect_degeneracy_split":
        return run_defect_split(spec, tmp)
    if kind == "defect_large_theta":
        return run_defect_large_theta(spec, tmp)
    return run_cli_op(spec, tmp)


def check_op(spec, out, tmp):
    """(status, detail, units) for one op's output."""
    kind = spec["kind"]
    if kind == "integrate":
        return check_integrate(spec, out)
    if kind == "defect_sl2r_reconstruction":
        return check_defect_sl2r(spec, out)
    if kind == "defect_degeneracy_split":
        return check_defect_split(spec, out, tmp)
    if kind == "defect_large_theta":
        return check_defect_large_theta(spec, out, tmp)
    return check_cli_op(spec, out, tmp)
