"""Command-line front end: validate / cohomology / omega / isotropy / simulate / sweep.

Structured reports go out as JSON, trajectories and sweeps as CSV, each written as text over
the old file in one os.write per report or per block of rows.  JSON floats are shortest
round-trip reprs.  A CSV file is a header, then one row per time or grid point: cells separated
by commas and never quoted, lines ending in "\\r\\n", floats with 17 significant digits, so
files round-trip bit-faithfully.
Both Poisson cells of a sweep row are empty where the form is degenerate, and on
every row when N < 2.  Exit codes: 0 success, 2 validation failure or an input too large
to allocate, 3 degenerate-form abort; exit 1 with a traceback is a bug.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import re
import stat
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .algebra import AXIOM_TOL, _load_json, _read_algebra, get_algebra
from .cohomology import cohomology_dimensions, delta1_scalar
from .dynamics import InertiaTensor, integrate
from .errors import InvalidInput, InvalidValue, LieDeformError
from .phase_space import RANK_TOL, DeformedStructure, decide_grid, degeneracy, load_deformation
from .symmetry import isotropy_subalgebra

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _jsonable(obj):
    """json.dumps hook for numpy arrays; json writes floats as shortest round-trip reprs."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, default=_jsonable, allow_nan=False)`` (str
    keys) without the pure-Python encoder ``indent`` selects; ``pad`` opens a line at this level."""
    if isinstance(value, float):
        text = float.__repr__(value)
        if "n" in text:  # nan, inf and -inf; the repr of a finite float has no letter n
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return text
    if isinstance(value, (str, int)) or value is None:  # bool is an int
        return json.dumps(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [encode_basestring_ascii(key) + ": " + _json_text(value[key], inner)
                 for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    return _json_text(_jsonable(value), pad)


def _overwrite(path, chunks):
    """The text chunks over ``path`` from offset 0, one os.write each; a longer regular file is cut.

    Opened without O_TRUNC: on ext4, a rewrite that first truncates the file to zero takes about
    twice as long, also when the file was last written minutes before.  Bytes, inode,
    permissions, symlinks and an error's prefix come out as with ``open(path, "w")``; a
    non-regular path (/dev/null, a FIFO) is streamed and never cut.  Not atomic, and weaker
    after a crash: a kill before the cut leaves the old tail after a shorter output, and a power
    loss before writeback (about 30 s) can leave old and new blocks mixed within the new length,
    where ext4 flushed a file truncated to zero on close and left the new file or an empty one.
    """
    fd, written = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), 0
    try:
        for chunk in chunks:
            data = chunk.encode()  # every output is ASCII
            while data:  # a write may take part of its bytes
                done = os.write(fd, data)
                written, data = written + done, data[done:]
    finally:  # a failed write (ENOSPC, EFBIG) or chunk still cuts the old tail off the prefix
        try:
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode) and info.st_size > written:
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


#: rows per write: the Python floats and text of a file are held one block at a time
_CSV_BLOCK = 1024


def _write_csv(path: str, header: list[str], columns: list[np.ndarray], row_format: str):
    """The header, then row k as ``row_format % (entry k of each column)``; one write a block."""
    def blocks():
        text = ",".join(header) + "\r\n"  # with the first block, or alone where there is none
        for start in range(0, len(columns[0]), _CSV_BLOCK) or [0]:
            block = [column[start:start + _CSV_BLOCK].tolist() for column in columns]
            yield text + "".join([row_format % row for row in zip(*block)])
            text = ""
    _overwrite(path, blocks())


def emit_report(report: dict, payload, output: str | None):
    """Write the report with the hash of the run's resolved inputs and the version added."""
    text = _json_text({**report, "input_hash": input_hash(payload), "version": __version__})
    if output:
        _overwrite(output, [text + "\n"])
    else:
        print(text)


def input_hash(payload) -> str:
    """Stable hash over the resolved numeric inputs of a run."""
    blob = json.dumps(payload, sort_keys=True, default=_jsonable).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# argument parsing / resolution
# ---------------------------------------------------------------------------

def parse_vector(text: str, n: int, option: str) -> np.ndarray:
    """The n comma-separated floats given to ``option``."""
    values = []
    for tok in text.split(","):
        try:
            values.append(float(tok))
        except ValueError:
            raise InvalidValue(f"{option}: {tok!r} is not a number") from None
    if len(values) != n:
        raise InvalidValue(f"{option}: expected {n} components, got {len(values)}")
    return np.array(values)


def resolve_structure(args, algebra) -> DeformedStructure:
    if args.deformation and args.xi:
        raise InvalidValue("--deformation and --xi both give Theta; give one of them")
    if args.deformation:
        return load_deformation(args.deformation, algebra)
    if args.xi:
        xi = parse_vector(args.xi, algebra.dim, "--xi")
        return DeformedStructure(algebra, delta1_scalar(algebra, xi))
    return DeformedStructure(algebra)


def resolve_inertia(spec: str, n: int) -> InertiaTensor:
    if spec == "identity":
        return InertiaTensor.identity(n)
    if spec.startswith("diag:"):
        return InertiaTensor.diagonal(parse_vector(spec[len("diag:"):], n, "--inertia"))
    data = _load_json(spec)
    if isinstance(data, dict) and "I_inv" not in data:
        raise InvalidInput(f"--inertia: {spec}: missing key 'I_inv'")
    try:
        I_inv = np.asarray(data["I_inv"] if isinstance(data, dict) else data, float)
    except (TypeError, ValueError):  # a string, a ragged list, an object
        raise InvalidValue(f"--inertia: {spec}: expected a {n} x {n} matrix of numbers") from None
    if I_inv.shape != (n, n):
        raise InvalidValue(f"--inertia: expected a {n} x {n} matrix, got shape {I_inv.shape}")
    return InertiaTensor(I_inv)


def _structure_payload(structure: DeformedStructure) -> dict:
    return {
        "algebra": {"name": structure.algebra.name,
                    "dim": structure.algebra.dim,
                    "f": structure.algebra.f},
        "Theta": structure.Theta,
        "Upsilon": structure.Upsilon,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args, algebra) -> int:
    report = dataclasses.replace(algebra._validation, tol=args.tol)
    emit_report({"algebra": algebra.name, "dim": algebra.dim,
                 "antisymmetry_residual": report.antisymmetry_residual,
                 "jacobi_residual": report.jacobi_residual, "accepted": report.accepted},
                {"f": algebra.f}, args.output)
    return EXIT_OK if report.accepted else EXIT_VALIDATION


def cmd_cohomology(args, structure) -> int:
    dims = cohomology_dimensions(structure.algebra)
    emit_report({"algebra": structure.algebra.name, "cocycle_residual": structure._residual,
                 "exact": structure._xi is not None, "xi": structure._xi,
                 "dims": {"Z2": dims.z2, "B2": dims.b2, "H2": dims.h2, "H1": dims.h1}},
                _structure_payload(structure), args.output)
    return EXIT_OK


def cmd_omega(args, structure, pi) -> int:
    report = degeneracy(structure, pi, rank_tol=args.rank_tol)
    emit_report({"algebra": structure.algebra.name, "rank": report.rank, "nullity": report.nullity,
                 "kernel": report.kernel, "poisson": report.poisson, "darboux_xi": structure._xi},
                {**_structure_payload(structure), "pi": pi}, args.output)
    return EXIT_OK


def cmd_isotropy(args, structure, inertia) -> int:
    inertia_inv = None if inertia is None else inertia.I_inv
    sub = isotropy_subalgebra(structure.algebra, structure.Theta, structure.Upsilon, inertia_inv)
    emit_report({"algebra": structure.algebra.name, "dimension": sub.dimension,
                 "basis": sub.basis, "closure_residual": sub.closure_residual},
                {**_structure_payload(structure), "inertia": inertia_inv}, args.output)
    return EXIT_OK


def cmd_simulate(args, structure, inertia, pi0) -> int:
    # linear observables from the residual-symmetry directions
    sub = isotropy_subalgebra(structure.algebra, structure.Theta, structure.Upsilon, inertia.I_inv)
    extra = {f"isotropy_{i}": sub.basis[i] for i in range(sub.dimension)}

    traj = integrate(structure, inertia, pi0, args.T, args.dt, extra_monitors=extra)

    channel_names = sorted(traj.monitors)
    columns = [traj.times, *traj.pis.T, *(traj.monitors[name] for name in channel_names)]
    _write_csv(args.output, ["t"] + [f"pi_{i}" for i in range(len(pi0))] + channel_names,
               columns, ",".join(["%.17g"] * len(columns)) + "\r\n")

    emit_report({"algebra": structure.algebra.name, "energy_drift": traj.drift("energy"),
                 "casimir_drift": traj.drift("casimir") if "casimir" in traj.monitors else None,
                 "monitor_drifts": {name: traj.drift(name) for name in channel_names},
                 "degenerate_at": traj.degenerate_at, "steps": len(traj.times) - 1},
                {**_structure_payload(structure), "I_inv": inertia.I_inv, "pi0": pi0,
                 "T": args.T, "dt": args.dt}, args.summary)
    return EXIT_OK if traj.degenerate_at is None else EXIT_DEGENERATE


def parse_axis(text: str):
    """Axis spec kind:i[,j]=start:stop:num, kinds theta / upsilon / xi."""
    try:
        head, rng = text.split("=")
        kind, idx = head.split(":")
        indices = tuple(int(tok) for tok in idx.split(","))
        start, stop, num = rng.split(":")
        start, stop = float(start), float(stop)
        with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
            values = np.linspace(start, stop, int(num))  # num < 0 raises
        if not np.isfinite(np.append(values, (start, stop))).all():
            raise ValueError("start, stop and every point must be finite")
    except (ValueError, TypeError) as exc:
        raise InvalidValue(f"bad axis spec {text!r}: {exc}") from exc
    if kind not in ("theta", "upsilon", "xi"):
        raise InvalidValue(f"bad axis kind {kind!r} in {text!r}")
    if kind == "xi" and len(indices) != 1:
        raise InvalidValue(f"xi axis takes one index, got {indices}")
    if kind != "xi" and len(indices) != 2:
        raise InvalidValue(f"{kind} axis takes an index pair, got {indices}")
    return kind, indices, values


def cmd_sweep(args, base, pi) -> int:
    algebra = base.algebra
    axes = [parse_axis(spec) for spec in args.axis]
    n = algebra.dim
    for kind, indices, _ in axes:
        if not all(0 <= i < n for i in indices) or len(set(indices)) < len(indices):
            raise InvalidValue(f"{kind} axis indices {indices} must be distinct and in 0..{n - 1}")

    # points in row-major order (last axis fastest): Theta varies along the theta and xi axes,
    # Upsilon along the upsilon axes, each of size 1 on the others; each axis value's text once
    grid = np.meshgrid(*[values for *_, values in axes], indexing="ij", sparse=True)
    stacks = []
    for A, kinds in ((base.Theta, ("theta", "xi")), (base.Upsilon, ("upsilon",))):
        sub = [len(values) if kind in kinds else 1 for kind, _, values in axes]
        A, xi = np.broadcast_to(A, sub + [n, n]).copy(), np.zeros(sub + [n])
        for (kind, indices, _), along in zip(axes, grid):  # each axis's values along its dimension
            if kind == "xi" and kind in kinds:
                xi[..., indices[0]] = along
            elif kind in kinds:
                i, j = indices
                A[..., i, j], A[..., j, i] = along, -along
        if "xi" in kinds and any(kind == "xi" for kind, _, _ in axes):
            A = A + delta1_scalar(algebra, xi)
        stacks.append(A)
    report = decide_grid(algebra, *stacks, pi, rank_tol=args.rank_tol)

    # the two Poisson cells as one string: both empty where degenerate, and everywhere if N < 2
    brackets = np.full(len(report.rank), ",", dtype=object)
    if n >= 2:
        Pi = report.poisson
        brackets[report.nullity == 0] = ["%.17g,%.17g" % qp for qp in
                                         zip(Pi[:, 0, 1].tolist(), Pi[:, n, n + 1].tolist())]
    text = [np.array(["%.17g" % v for v in values.tolist()], dtype=object) for *_, values in axes]
    cells = [g.ravel() for g in np.meshgrid(*text, indexing="ij")]
    header = (["index"] + [f"{kind}_" + "_".join(map(str, indices)) for kind, indices, _ in axes]
              + ["rank", "nullity", "poisson_qq", "poisson_pp"])
    _write_csv(args.output, header, [np.arange(len(report.rank)), *cells, report.rank,
                                     report.nullity, brackets],
               "%d," + "%s," * len(cells) + "%d,%d,%s\r\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liedeform",
        description="Deformed symplectic structures on T*G: cocycles, "
                    "degeneracy, Darboux shifts, Euler-type dynamics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, deformation=True, rank_tol=False):
        p.add_argument("--algebra", required=True,
                       help="algebra spec file or registry name (so3, sl2r, "
                            "heisenberg, se2, abelianN)")
        if deformation:
            p.add_argument("--deformation", help="deformation spec file (JSON)")
            p.add_argument("--xi", help="inline xi vector; Theta becomes its coboundary")
        if rank_tol:
            p.add_argument("--rank-tol", type=float, default=RANK_TOL,
                           help="singular values of K = I + C(pi) Upsilon at or below "
                                "rank_tol * max(sigma_max(K), 1) count as zero; in (0, 1)")
        p.add_argument("--output", "-o", help="output file (default: stdout for JSON)")

    p = sub.add_parser("validate", help="check bracket axioms of an algebra")
    common(p, deformation=False)
    p.add_argument("--tol", type=float, default=AXIOM_TOL, help="validation tolerance override")

    p = sub.add_parser("cohomology", help="cocycle residual, exactness, cohomology dims")
    common(p)

    p = sub.add_parser("omega", help="two-form matrix analysis at a phase point")
    common(p, rank_tol=True)
    p.add_argument("--pi", help="body momentum, comma separated (default zeros)")

    p = sub.add_parser("isotropy", help="residual-symmetry subalgebra")
    common(p)
    p.add_argument("--inertia", help="optional inertia: identity, diag:..., or file")

    p = sub.add_parser("simulate", help="integrate the Euler-type flow")
    common(p)
    p.add_argument("--inertia", required=True,
                   help="inertia: identity, diag:a,b,..., or JSON file")
    p.add_argument("--pi0", required=True, help="initial body momentum")
    p.add_argument("--T", type=float, required=True, help="final time")
    p.add_argument("--dt", type=float, required=True, help="time step")
    p.add_argument("--summary", help="JSON summary file (default: stdout)")

    p = sub.add_parser("sweep", help="grid sweep of deformation entries")
    common(p, rank_tol=True)
    p.add_argument("--axis", action="append", default=[],
                   help="kind:i[,j]=start:stop:num with kind theta|upsilon|xi; repeatable")
    p.add_argument("--pi0", help="body momentum at which to evaluate (default zeros)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: main may run many times in one."""
    return build_parser()


#: options that take numbers, and the start of a value argparse misreads as an option
_NUMBER_OPTIONS = ("--pi", "--xi", "--pi0", "--rank-tol", "--T", "--dt", "--tol")
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with ``--pi -0.5,1,0`` written ``--pi=-0.5,1,0``; ``--T -o`` keeps -o an option."""
    joined = []
    for token in argv:
        if joined and joined[-1] in _NUMBER_OPTIONS and _NEGATIVE_NUMBER.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    if args.command == "simulate" and not args.output:
        parser.error("simulate requires --output for the trajectory CSV")
    if args.command == "sweep" and not args.output:
        parser.error("sweep requires --output for the grid CSV")
    # at 1 or above, an odd N's count of small singular values rounded up to even can exceed N
    if not 0.0 < getattr(args, "rank_tol", 0.5) < 1.0:  # omega and sweep only; NaN fails too
        parser.error("--rank-tol must lie in (0, 1)")
    if not 0.0 <= getattr(args, "tol", 0.0) < np.inf:  # validate only; NaN fails too
        parser.error("--tol must be non-negative and finite")
    try:  # inputs in the order every subcommand reports a bad one
        if not os.path.exists(args.algebra):
            algebra = get_algebra(args.algebra)
        else:  # validate judges a file at its own --tol, where the residuals it reports are finite
            algebra = _read_algebra(args.algebra)
            finite = np.isfinite(dataclasses.astuple(algebra._validation)[:2]).all()
            if args.command != "validate" or not finite:
                algebra._accepted()
        n = algebra.dim
        inputs = [algebra if args.command == "validate" else resolve_structure(args, algebra)]
        if args.command in ("isotropy", "simulate"):
            inputs.append(resolve_inertia(args.inertia, n) if args.inertia else None)
        option = {"omega": "pi", "simulate": "pi0", "sweep": "pi0"}.get(args.command)
        if option:
            text = getattr(args, option)
            inputs.append(parse_vector(text, n, f"--{option}") if text else np.zeros(n))
        # looked up per call, not bound into the cached parser: a patched cmd_* is the one run
        return globals()[f"cmd_{args.command}"](args, *inputs)
    except (LieDeformError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
