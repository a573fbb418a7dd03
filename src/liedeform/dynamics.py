"""Euler-type Hamiltonian dynamics under the deformed structure.

The flow solves M(pi) zeta = -dH with zeta = (eta, pidot) and
dH = (0, I_inv pi) in the left-invariant frame, which reduces to

    (I_N + C(pi) Upsilon) pidot = -C(pi) I_inv pi,   eta = I_inv pi + Upsilon pidot.

With Theta = Upsilon = 0 on so(3) this is classical Euler, pidot = pi x (I_inv pi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _expm, _require_finite, _transpose_residual, get_algebra, is_semisimple
from .errors import DegenerateForm, InvalidValue, StepRejected
from .phase_space import (_CERTIFIED_SQ, DeformedStructure, _nullity,  # noqa: F401 re-export
                          lie_poisson_block)

# The LAPACK gufunc (LU with partial pivoting) that np.linalg.solve calls, without that
# wrapper's array wrapping, type resolution and errstate: a third of an Upsilon != 0 step.
# The wrapper's one extra behaviour, LinAlgError('Singular matrix') on an exactly zero
# pivot, cannot fire in hamiltonian_vector_field: K reaches the solve only after the
# certificate or _nullity passed it, so sigma_min(K) > RANK_TOL * sigma_max(K).  A zero
# pivot makes K + E singular for the LU's backward error |E| <~ N eps growth |K|, which
# needs growth above about RANK_TOL / (N eps) = 1e5; partial pivoting grows elements by
# at most 2**(N - 1) = 512 at N <= 10.  A NaN or inf in K fails the certificate, and
# _nullity rejects it before any LAPACK call.
_solve = np.linalg._umath_linalg.solve1

#: CF4's weights of the four RK4 stage velocities in each of a step's two exponents
_CF4 = np.array([[1 / 4, 1 / 6, 1 / 6, -1 / 12],
                 [-1 / 12, 1 / 6, 1 / 6, 1 / 4]])

#: steps whose group exponentials are formed together: bounds the stage velocities held
_G_BLOCK = 1024


@dataclass(frozen=True)
class InertiaTensor:
    """Positive-definite contravariant inertia: maps body momentum to body velocity."""

    I_inv: np.ndarray

    def __post_init__(self):
        I_inv = np.asarray(self.I_inv, dtype=float)
        if I_inv.ndim != 2 or I_inv.shape[0] != I_inv.shape[1]:
            raise InvalidValue(f"inertia must be square, got shape {I_inv.shape}")
        _require_finite("inertia", I_inv)
        residual, bound = _transpose_residual(I_inv, symmetric=True)
        if not residual <= bound:
            raise InvalidValue("inertia must be symmetric")
        # not (x > 0): NaN fails the comparison, so it is rejected
        if not np.min(np.linalg.eigvalsh(I_inv)) > 0:
            raise InvalidValue("inertia must be positive definite")
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
    docstring and no SVD is made; otherwise DegenerateForm is raised where
    phase_space._nullity finds K degenerate at RANK_TOL, the rule ``omega`` applies, and
    InvalidValue where it finds K not finite.
    A K that passes is solved by LAPACK's gufunc directly (``_solve``): by the argument
    at its binding it cannot meet the exactly singular K that np.linalg.solve rejects.

    At N <= 10 numpy's per-call overhead, not arithmetic, sets the cost, so every
    product is ``ndarray.dot``: the BLAS call ``@`` makes, with the same bytes.  -C(pi) comes
    from the structure's -f and -Theta: negated terms sum to the negated sum, I - (-C) Upsilon
    is I + C Upsilon, and a zero of -C whose sign differs reaches pidot only as a zero term.
    """
    pi = np.asarray(pi, float)
    minus_C = pi.dot(structure._minus_f).reshape(structure._eye.shape) + structure._minus_Theta
    velocity = inertia.I_inv.dot(pi)
    if structure.upsilon_zero:
        return velocity, minus_C.dot(velocity)
    X = minus_C.dot(structure.Upsilon)
    K = structure._eye - X
    x = X.ravel()
    # not (x.x <= ...): a NaN or inf in K fails the certificate, and _nullity raises InvalidValue
    if not x.dot(x) <= _CERTIFIED_SQ and _nullity(K):
        raise DegenerateForm("two-form degenerate at this momentum")
    pidot = _solve(K, minus_C.dot(velocity))
    eta = velocity + structure.Upsilon.dot(pidot)
    return eta, pidot


@dataclass
class Trajectory:
    times: np.ndarray
    pis: np.ndarray                      # steps+1 x N
    monitors: dict                       # name -> array, same length as times
    gs: np.ndarray | None = None         # g(t), steps+1 x d x d, when a representation is supplied
    degenerate_at: float | None = None   # time of a mid-run degeneracy abort

    @property
    def complete(self) -> bool:
        return self.degenerate_at is None

    def drift(self, channel: str) -> float:
        values = self.monitors[channel]
        return float(np.max(np.abs(values - values[0])))


def _casimir_monitor(structure: DeformedStructure):
    """Evaluator of the shifted quadratic Casimir on a (K, N) stack of momenta, or None.

    Requires Upsilon = 0, a semisimple algebra and exact Theta, tested in that order so that
    Theta's primitive ``structure._xi`` is solved only where the first two hold; the conserved
    quantity is then the inverse-Killing quadratic of sigma = pi - xi.
    """
    algebra = structure.algebra
    if not structure.upsilon_zero or not is_semisimple(algebra) or structure._xi is None:
        return None
    xi = structure._xi

    def monitor(pis):
        sigma = pis - xi
        return (sigma[:, None, :] @ algebra._killing_inv @ sigma[:, :, None])[:, 0, 0]

    return monitor


def _rk4_step(rhs, y, dt):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_count(T: float, dt: float) -> int:
    """Number of RK4 steps of size dt up to time T; rejects a dt or T no run can take."""
    T, dt = float(T), float(dt)
    if not 0.0 < dt < np.inf:
        raise InvalidValue(f"dt must be positive and finite, got {dt!r}")
    if not 0.0 <= T < np.inf:
        raise InvalidValue(f"T must be non-negative and finite, got {T!r}")
    ratio = T / dt
    if not ratio < np.inf:  # a subnormal dt overflows T / dt
        raise InvalidValue(f"T / dt must be finite, got T = {T!r}, dt = {dt!r}")
    return int(round(ratio))


def _advance_group(gs, lo: int, hi: int, etas: list, rep_flat, dt: float, times):
    """Fill gs[lo:hi] from gs[lo - 1] by CF4; ``etas`` holds the steps' four stage velocities.

    Step k takes g_k to g_k exp(dt rho(a_k)) exp(dt rho(b_k)), with (a_k, b_k) = _CF4 times
    its stage velocities; the 2 (hi - lo) exponentials are one stacked ``_expm``, and the
    chain then costs one d x d product per step.  StepRejected names the first time at
    which g is not finite.
    """
    m, d = hi - lo, gs.shape[1]
    stages = np.array(etas[:4 * m]).reshape(m, 4, len(rep_flat))
    F = _expm((dt * _CF4 @ stages).dot(rep_flat).reshape(m, 2, d, d), minus_identity=True)
    # (I + F1)(I + F2) = I + F: g + g F keeps the small step's bits that g (I + F) loses
    F = F[:, 0] + F[:, 1] + F[:, 0] @ F[:, 1]
    for j in range(m):
        g = gs[lo + j - 1]
        np.add(g, g.dot(F[j]), out=gs[lo + j])
    finite = np.isfinite(gs[lo:hi]).all(axis=(1, 2))
    if not finite.all():
        raise StepRejected(f"non-finite group element at t = {times[lo + np.argmin(finite)]:.6g}")


def integrate(structure: DeformedStructure, inertia: InertiaTensor, pi0,
              T: float, dt: float, rep=None,
              extra_monitors: dict | None = None) -> Trajectory:
    """Classical RK4 integration of the deformed Euler flow.

    RK4 steps the momentum pi alone: _rk4_step's arithmetic written out, in its order, with
    four calls of hamiltonian_vector_field per step and the update on Python floats (the same
    doubles as numpy).  Each kept state is one row of a preallocated array; after the run one
    stacked matmul per channel (energy, Casimir, ``extra_monitors``) evaluates all rows.

    ``rep`` is an optional stack of N generator matrices rho(e_i); when given, the group
    element is reconstructed from g(0) = I and dg/dt = g rho(eta) by the commutator-free
    Lie-group method CF4 (Celledoni, Marthinsen and Owren, FGCS 19, 2003) on the four
    body velocities eta_1..eta_4 that RK4's stages compute anyway:

        g_{k+1} = g_k exp(dt rho(eta_1/4 + eta_2/6 + eta_3/6 - eta_4/12))
                      exp(dt rho(-eta_1/12 + eta_2/6 + eta_3/6 + eta_4/4)).

    It is fourth order, exact for constant eta, and stays in the group of any matrix
    representation to round-off.  pi and every monitor are the same bytes with or
    without ``rep``.  The exponentials are formed every _G_BLOCK steps, so memory
    beyond the trajectory does not grow with the run.

    A mid-run degeneracy returns the partial trajectory with ``degenerate_at`` set.  A
    non-finite pi0 raises InvalidValue.  A non-finite momentum or group element raises
    StepRejected naming the first time at which it occurs, and so does a monitor that
    overflows on finite states.
    """
    pi0 = np.asarray(pi0, dtype=float)
    _require_finite("pi0", pi0)
    steps = _step_count(T, dt)
    times = dt * np.arange(steps + 1)
    etas = []  # the stage velocities of the current block's steps, four per step
    if rep is not None:
        rep = np.asarray(rep, dtype=float)
        d = rep.shape[1]
        rep_flat = rep.reshape(len(rep), d * d)
        gs = np.empty((steps + 1, d, d))
        gs[0] = np.eye(d)
    # _rk4_step's coefficients: 0-d arrays for the stages, not converted on each product
    half, full, sixth = np.array(0.5 * dt), np.array(float(dt)), float(dt / 6.0)

    rows = np.empty((steps + 1, pi0.size))
    rows[0] = pi0
    y = rows[0]
    kept, degenerate_at, rejected = 1, None, None
    # a blow-up overflows silently: the finiteness checks below report it as StepRejected
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, _G_BLOCK):
            for k in range(start, min(start + _G_BLOCK, steps)):
                try:
                    e1, k1 = hamiltonian_vector_field(structure, inertia, y)
                    e2, k2 = hamiltonian_vector_field(structure, inertia, y + half * k1)
                    e3, k3 = hamiltonian_vector_field(structure, inertia, y + half * k2)
                    e4, k4 = hamiltonian_vector_field(structure, inertia, y + full * k3)
                except DegenerateForm:
                    degenerate_at = float(times[k])
                    break
                except InvalidValue as exc:  # _nullity's K is not finite, or its SVD failed
                    rejected = f"{exc} at t = {times[k]:.6g}"
                    break
                y_list = [p + sixth * (((q1 + 2.0 * q2) + 2.0 * q3) + q4) for p, q1, q2, q3, q4
                          in zip(y.tolist(), k1.tolist(), k2.tolist(), k3.tolist(), k4.tolist())]
                if not all(map(math.isfinite, y_list)):
                    rejected = f"non-finite state at t = {times[k + 1]:.6g}"
                    break
                rows[kept] = y_list
                y = rows[kept]
                kept += 1
                if rep is not None:
                    etas += (e1, e2, e3, e4)
            if rep is not None:
                _advance_group(gs, start + 1, kept, etas, rep_flat, dt, times)
                etas.clear()
            if rejected is not None:
                raise StepRejected(rejected)
            if degenerate_at is not None:
                break

        pis = rows[:kept]
        monitors = {"energy": 0.5 * (pis[:, None, :] @ inertia.I_inv @ pis[:, :, None])[:, 0, 0]}
        casimir = _casimir_monitor(structure)
        if casimir is not None:
            monitors["casimir"] = casimir(pis)
        for name, vec in (extra_monitors or {}).items():
            monitors[name] = (pis[:, None, :] @ np.asarray(vec, float)[:, None])[:, 0, 0]
        for name, values in monitors.items():
            finite = np.isfinite(values - values[0])  # the monitor and its drift
            if not finite.all():
                raise StepRejected(f"non-finite {name} monitor at t = {times[finite.argmin()]:.6g}")
    return Trajectory(
        times=times[:kept],
        pis=pis,
        monitors=monitors,
        gs=None if rep is None else gs[:kept],
        degenerate_at=degenerate_at,
    )


def euler_reference(inertia: InertiaTensor, pi0, T: float, dt: float) -> Trajectory:
    """Independent rigid-body oracle on so(3): RK4 on pidot = pi x (I_inv pi)."""
    pi = np.asarray(pi0, float)
    if pi.shape != (3,):
        raise InvalidValue("the rigid-body oracle is three-dimensional")
    steps = _step_count(T, dt)
    times = dt * np.arange(steps + 1)

    def rhs(p):
        # np.cross(p, w) written out: the same roundings, without its per-call overhead
        (p0, p1, p2), (w0, w1, w2) = p.tolist(), (inertia.I_inv @ p).tolist()
        return np.array([p1 * w2 - p2 * w1, p2 * w0 - p0 * w2, p0 * w1 - p1 * w0])

    pis, energies = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported as StepRejected
        for k in range(steps + 1):
            pi = _rk4_step(rhs, pi, dt) if k else pi
            energy = hamiltonian(inertia, pi)
            if not math.isfinite(energy):  # also where pi is not; H overflows a step before pi
                what = "energy" if all(map(math.isfinite, pi.tolist())) else "momentum"
                raise StepRejected(f"non-finite {what} at t = {times[k]:.6g}")
            pis.append(pi.copy())
            energies.append(energy)
    return Trajectory(times=times, pis=np.array(pis), monitors={"energy": np.array(energies)})


def so3_vector_representation() -> np.ndarray:
    """Generators of the rotation representation matching the so3 registry basis."""
    return np.ascontiguousarray(get_algebra("so3").f.transpose(1, 0, 2))
