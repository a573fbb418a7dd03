"""Euler-type Hamiltonian dynamics under the deformed structure.

The flow solves M(pi) zeta = -dH with zeta = (eta, pidot) and
dH = (0, I_inv pi) in the left-invariant frame, which reduces to

    (I_N + C(pi) Upsilon) pidot = -C(pi) I_inv pi,   eta = I_inv pi + Upsilon pidot.

With Theta = Upsilon = 0 on so(3) this is classical Euler, pidot = pi x (I_inv pi).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra, is_semisimple, killing_form, so3
from .cohomology import solve_primitive
from .errors import DegenerateForm, NotExact, StepRejected
from .phase_space import RANK_TOL, DeformedStructure, lie_poisson_block

#: ||C Upsilon||_F^2 at or below this certifies K = I + C Upsilon nondegenerate: every
#: singular value of K then lies in [0.1, 1.9], far above RANK_TOL * 1.9
_CERTIFIED_SQ = 0.81


@dataclass(frozen=True)
class InertiaTensor:
    """Positive-definite contravariant inertia: maps body momentum to body velocity."""

    I_inv: np.ndarray

    def __post_init__(self):
        I_inv = np.asarray(self.I_inv, dtype=float)
        if I_inv.ndim != 2 or I_inv.shape[0] != I_inv.shape[1]:
            raise ValueError(f"inertia must be square, got shape {I_inv.shape}")
        if not np.isfinite(I_inv).all():
            i, j = np.argwhere(~np.isfinite(I_inv))[0]
            raise ValueError(f"inertia has a non-finite entry {I_inv[i, j]} at ({i}, {j})")
        # not (x <= tol), not (x > 0): NaN fails both comparisons, so it is rejected
        with np.errstate(over="ignore"):  # finite entries near the float64 limit
            if not np.max(np.abs(I_inv - I_inv.T)) <= 1e-12:
                raise ValueError("inertia must be symmetric")
        if not np.min(np.linalg.eigvalsh(I_inv)) > 0:
            raise ValueError("inertia must be positive definite")
        I_inv.setflags(write=False)
        object.__setattr__(self, 'I_inv', I_inv)

    @classmethod
    def diagonal(cls, values) -> "InertiaTensor":
        return cls(np.diag(np.asarray(values, float)))

    @classmethod
    def identity(cls, n: int) -> "InertiaTensor":
        return cls(np.eye(n))


def hamiltonian(inertia: InertiaTensor, pi) -> float:
    pi = np.asarray(pi, float)
    return 0.5 * float(pi @ inertia.I_inv @ pi)


def hamiltonian_vector_field(structure: DeformedStructure, inertia: InertiaTensor, pi):
    """(eta, pidot) of the Hamiltonian vector field at body momentum pi.

    With Upsilon != 0, pidot solves K pidot = -C velocity, K = I + C Upsilon.  When
    ||C Upsilon||_F^2 <= 0.81, K is nondegenerate by the certificate in the phase_space
    docstring and no SVD is made; otherwise DegenerateForm is raised when the smallest
    singular value of K is at most RANK_TOL * max(sigma_max, 1).
    """
    pi = np.asarray(pi, float)
    C = lie_poisson_block(structure, pi)
    velocity = inertia.I_inv @ pi
    if structure.upsilon_zero:
        return velocity, -C @ velocity
    X = C @ structure.Upsilon
    K = structure._eye + X
    x = X.ravel()
    # not (x @ x <= ...): a NaN or inf in K fails the certificate and reaches the SVD
    if not x @ x <= _CERTIFIED_SQ:
        s = np.linalg.svd(K, compute_uv=False)
        if s[-1] <= RANK_TOL * max(s[0], 1.0):
            raise DegenerateForm("two-form degenerate at this momentum")
    pidot = np.linalg.solve(K, -C @ velocity)
    eta = velocity + structure.Upsilon @ pidot
    return eta, pidot


@dataclass
class Trajectory:
    times: np.ndarray
    pis: np.ndarray                      # steps+1 x N
    monitors: dict                       # name -> array, same length as times
    gs: np.ndarray | None = None         # steps+1 x d x d when a representation is supplied
    degenerate_at: float | None = None   # time of a mid-run degeneracy abort

    @property
    def complete(self) -> bool:
        return self.degenerate_at is None

    def drift(self, channel: str) -> float:
        values = self.monitors[channel]
        return float(np.max(np.abs(values - values[0])))


def _casimir_monitor(structure: DeformedStructure):
    """Evaluator of the shifted quadratic Casimir on a (K, N) stack of momenta, or None.

    Requires a semisimple algebra, Upsilon = 0 and exact Theta; the conserved
    quantity is then the inverse-Killing quadratic of sigma = pi - xi.
    """
    algebra = structure.algebra
    if not is_semisimple(algebra):
        return None
    if not structure.upsilon_zero:
        return None
    try:
        xi, _, _ = solve_primitive(algebra, structure.Theta)
    except NotExact:
        return None
    B_inv = np.linalg.inv(killing_form(algebra))

    def monitor(pis):
        sigma = pis - xi
        return (sigma[:, None, :] @ B_inv @ sigma[:, :, None])[:, 0, 0]

    return monitor


def _rk4_step(rhs, y, dt):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(structure: DeformedStructure, inertia: InertiaTensor, pi0,
              T: float, dt: float, g0=None, rep=None,
              extra_monitors: dict | None = None) -> Trajectory:
    """Classical RK4 integration of the deformed Euler flow.

    ``rep`` is an optional stack of N generator matrices rho(e_i); when given
    (with g0 defaulting to the identity), the group element is reconstructed
    from dg/dt = g rho(eta); after each step g = W S V^T is replaced by W V^T.

    RK4 steps one flat state y: pi alone, or pi followed by g raveled, whose
    time derivative is (pidot, g rho(eta)) with rho(eta) = eta_i rho(e_i).
    Each kept state is one row of a preallocated array; after the run one stacked
    matmul per channel (energy, Casimir, ``extra_monitors``) evaluates all rows.

    A mid-run degeneracy returns the partial trajectory with
    ``degenerate_at`` set; non-finite states raise StepRejected before projection.
    """
    pi0 = np.asarray(pi0, dtype=float)
    n = pi0.size
    steps = int(round(T / dt))
    times = dt * np.arange(steps + 1)

    if rep is None:
        y = pi0.copy()

        def rhs(y):
            return hamiltonian_vector_field(structure, inertia, y)[1]
    else:
        rep = np.asarray(rep, dtype=float)
        d = rep.shape[1]
        rep_flat = rep.reshape(len(rep), d * d)
        g = np.eye(d) if g0 is None else np.asarray(g0, dtype=float)
        y = np.concatenate([pi0, g.ravel()])

        def rhs(y):
            eta, pidot = hamiltonian_vector_field(structure, inertia, y[:n])
            gdot = y[n:].reshape(d, d) @ (eta @ rep_flat).reshape(d, d)
            return np.concatenate([pidot, gdot.ravel()])

    rows = np.empty((max(steps, 0) + 1, y.size))
    rows[0] = y
    kept, degenerate_at = 1, None
    # a blow-up overflows silently: the finiteness check below reports it as StepRejected
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            try:
                y = _rk4_step(rhs, y, dt)
            except DegenerateForm:
                degenerate_at = float(times[k])
                break
            if not np.isfinite(y).all():
                raise StepRejected(f"non-finite state at t = {times[k + 1]:.6g}")
            if rep is not None:
                w, _, vh = np.linalg.svd(y[n:].reshape(d, d))
                y[n:] = (w @ vh).ravel()  # reproject onto O(d)
            rows[kept] = y
            kept += 1

    pis = rows[:kept, :n]
    monitors = {"energy": 0.5 * (pis[:, None, :] @ inertia.I_inv @ pis[:, :, None])[:, 0, 0]}
    casimir = _casimir_monitor(structure)
    if casimir is not None:
        monitors["casimir"] = casimir(pis)
    for name, vec in (extra_monitors or {}).items():
        monitors[name] = (pis[:, None, :] @ np.asarray(vec, float)[:, None])[:, 0, 0]
    return Trajectory(
        times=times[:kept],
        pis=pis,
        monitors=monitors,
        gs=None if rep is None else rows[:kept, n:].reshape(kept, d, d),
        degenerate_at=degenerate_at,
    )


def euler_reference(inertia: InertiaTensor, pi0, T: float, dt: float,
                    extra_monitors: dict | None = None) -> Trajectory:
    """Independent rigid-body oracle on so(3): RK4 on pidot = pi x (I_inv pi)."""
    pi0 = np.asarray(pi0, float)
    if pi0.shape != (3,):
        raise ValueError("the rigid-body oracle is three-dimensional")
    pi = pi0.copy()
    steps = int(round(T / dt))
    times = dt * np.arange(steps + 1)

    def rhs(p):
        # np.cross(p, w) written out: the same roundings, without its per-call overhead
        (p0, p1, p2), (w0, w1, w2) = p.tolist(), (inertia.I_inv @ p).tolist()
        return np.array([p1 * w2 - p2 * w1, p2 * w0 - p0 * w2, p0 * w1 - p1 * w0])

    extra = dict(extra_monitors or {})
    pis = [pi.copy()]
    energy = [hamiltonian(inertia, pi)]
    channels = {name: [float(np.dot(vec, pi))] for name, vec in extra.items()}
    for k in range(steps):
        pi = _rk4_step(rhs, pi, dt)
        if not np.all(np.isfinite(pi)):
            raise StepRejected(f"non-finite momentum at t = {times[k + 1]:.6g}")
        pis.append(pi.copy())
        energy.append(hamiltonian(inertia, pi))
        for name, vec in extra.items():
            channels[name].append(float(np.dot(vec, pi)))
    monitors = {"energy": np.array(energy)}
    monitors.update({k: np.array(v) for k, v in channels.items()})
    return Trajectory(times=times, pis=np.array(pis), monitors=monitors)


def so3_vector_representation() -> np.ndarray:
    """Generators of the rotation representation matching the so3 registry basis."""
    algebra = so3()
    gens = np.zeros((3, 3, 3))
    for i in range(3):
        u = np.zeros(3)
        u[i] = 1.0
        gens[i] = np.einsum('mkn,k->mn', algebra.f, u)
    return gens
