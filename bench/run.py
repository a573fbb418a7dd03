"""liedeform benchmark: one command, every metric, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists and what it predicts):
rigid_ensemble, deformed_ensemble, analysis_cli.

``--trace 0`` starts SETUP_REPEATS fresh worker interpreters one after the
other.  Each imports liedeform, generates the seeded inputs and runs warm-up
ops; set-up time is measured from process start to its ``READY`` line and
``setup_s`` is the median.  One of them, after SETUP_BEFORE set-up-only
workers, runs the timed closed loop (one client) for S seconds of op time and
checks every op's output; the remaining set-up-only workers start after it.

``--trace 1`` times the imports in fresh probe interpreters, then runs one
deck pass untraced and the same pass traced in one worker, and reports the
per-layer metrics named in BENCHMARK.json.

Human-readable lines (all eight end-to-end metrics, with units, plus the
environment) come first, prefixed with ``#``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
that cannot complete (e.g. ``src/liedeform`` is missing) exits non-zero
without that line.  Per-run results and spans go to ``.bench_runs/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_runs")
SETUP_REPEATS = 7
SETUP_BEFORE = 3            # start-ups before the timed run; the rest come after it
PROBE_REPEATS = 3
DEADLINE_S = 170.0          # the whole run, including every child process

PROBE_LIEDEFORM = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                   "import liedeform; print(time.perf_counter() - t)")
PROBE_SCIPY = ("import time, numpy; t = time.perf_counter(); import scipy.linalg; "
               "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    pass


def remaining(start):
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise BenchError("deadline exceeded")
    return left


def run_worker(mode, args, tmp, start):
    """Start one worker; return (seconds from start to READY, parsed result or None)."""
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--tmp", tmp]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait(timeout=remaining(start))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (mode != "setup" and not lines):
        raise BenchError(f"worker {mode} exited with {code} (ready: {ready is not None})")
    return ready, (json.loads(lines[-1]) if mode != "setup" else None)


def probe(code, start, *argv):
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, capture_output=True,
                         text=True, timeout=remaining(start))
    if out.returncode != 0:
        raise BenchError(f"probe failed: {out.stderr.strip()}")
    return float(out.stdout.strip())


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu}


def end_to_end(result, setup_times) -> dict:
    """All eight end-to-end metrics: name -> (value or None, unit, note).

    Each deck op runs once per pass; ops_per_s, op_ms_* and the rates use its
    best latency over the run's passes (see Tally.summary in worker.py).
    The percentiles are over the deck's distinct ops.  The notes carry the
    raw figures, which include interference.
    """
    deck_s = result["deck_s"]
    best = f"best of {result['passes']}+ runs per op"
    return {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} fresh start-ups: "
                    + ", ".join(f"{t:.3f}" for t in setup_times)),
        "ops_per_s": (result["deck_ops"] / deck_s, "1/s",
                      f"{result['deck_ops']} deck ops in {deck_s:.4f} s, {best}; "
                      f"raw: {result['attempted']} ops in {result['timed_s']:.3f} s"),
        "op_ms_p50": (result["op_ms_p50"], "ms",
                      f"median over the deck, {best}; raw {result['raw_ms_p50']:.4g} ms"),
        "op_ms_tail": (result["op_ms_tail"], "ms",
                       f"p{result['tail_percentile']:.1f} of {result['deck_ops']} deck ops "
                       f"({result['tail_beyond']} ops beyond), {best}; raw "
                       f"{result['raw_ms_tail']:.4g} ms at p{result['raw_tail_percentile']:.2f} "
                       f"of {result['attempted']} op runs"),
        "traj_steps_per_s": (result["deck_steps"] / deck_s if result["deck_steps"] else None,
                             "1/s", f"{result['deck_steps']} steps per pass, {best}"
                             if result["deck_steps"] else "n/a: no trajectories"),
        "points_per_s": (result["sweep_points"] / result["sweep_s"] if result["sweep_points"]
                         else None, "1/s",
                         f"{result['sweep_points']} grid points per pass, {best}"
                         if result["sweep_points"] else "n/a: no sweeps"),
        "fail_ratio": (result["failed"] / result["attempted"], "-",
                       f"{result['failed']} failed or wrong of {result['attempted']} attempted"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "ru_maxrss of the workload process"),
    }


def per_layer(result, probes) -> dict:
    metrics = {f"setup.{name}": (value, "s", note) for name, (value, note) in probes.items()}
    for name, row in result["layers"].items():
        metrics[f"{name}.calls"] = (row["calls"], "count", "")
        metrics[f"{name}.self_ms"] = (row["self_ms"], "ms", "")
        metrics[f"{name}.raised"] = (row["raised"], "count", "")
    bases = result["bases"]
    notes = {
        "dynamics.rhs_per_step": f"{bases['hvf_calls']} vector-field calls / {result['steps']} steps",
        "dynamics.steps_completed_ratio": f"{result['steps']} / {result['steps_requested']} steps",
        "phase_space.linalg_per_point":
            f"{bases['sweep_linalg_calls']} linalg calls / {result['points']} sweep points",
        "phase_space.nondegenerate_ratio":
            f"{result['nondegenerate']} / {result['points']} sweep points",
        "trace.overhead_ratio": "traced / untraced op time over the same deck pass",
    }
    units = {"dynamics.linalg_calls": "count", "trace.spans": "count",
             "dynamics.rhs_per_step": "calls/step", "phase_space.linalg_per_point": "calls/point"}
    for name, value in result["derived"].items():
        metrics[name] = (value, units.get(name, "ratio"), notes.get(name, ""))
    return metrics


def select(declared, metrics, wrapped=()):
    """The declared metrics in BENCHMARK.json order.

    A function the tracer wrapped but the workload never called reads 0.  A
    declared function the tracer did not find (renamed, removed, or a typo in
    BENCHMARK.json) is an error, not a silent 0.
    """
    out = {}
    for spec in declared:
        name = spec["name"]
        function, _, stat = name.rpartition(".")
        if name in metrics:
            value = metrics[name][0]
        elif stat in ("calls", "self_ms", "raised") and function in wrapped:
            value = 0
        else:
            raise BenchError(f"metric {name} was not produced")
        if value is None:
            raise BenchError(f"metric {name} has no value on this workload")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    if args.workload not in {w["name"] for w in config["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "liedeform")):
        print("error: src/liedeform not found next to bench/", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    try:
        if args.trace:
            probes = {
                "import_liedeform_s": [probe(PROBE_LIEDEFORM, start, os.path.join(ROOT, "src"))
                                       for _ in range(PROBE_REPEATS)],
                "import_scipy_linalg_s": [probe(PROBE_SCIPY, start) for _ in range(PROBE_REPEATS)],
            }
            _, result = run_worker("trace", args, tmp, start)
            metrics = per_layer(result, {
                name: (statistics.median(v), f"median of {len(v)} fresh interpreters")
                for name, v in probes.items()})
            declared, wrapped = config["per_layer"], result["wrapped"]
        else:
            # start-ups before and after the timed run, so that the median
            # samples the host over the whole run, not over a few seconds
            setup_times = [run_worker("setup", args, tmp, start)[0]
                           for _ in range(SETUP_BEFORE)]
            ready, result = run_worker("run", args, tmp, start)
            setup_times.append(ready)
            setup_times += [run_worker("setup", args, tmp, start)[0]
                            for _ in range(SETUP_REPEATS - SETUP_BEFORE - 1)]
            metrics = end_to_end(result, setup_times)
            declared, wrapped = config["end_to_end"], ()
        selected = select(declared, metrics, wrapped)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
              "defects": result["defects"], "failures": result["failures"]}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"# env: {json.dumps(env)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: closed loop, one client, one process")
    for name, (value, unit, note) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"# {name:40s} {shown:>12s} {unit:10s} {note}")
    for kind, outcome in sorted(result["defects"].items()):
        print(f"# known defect {kind}: {outcome}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    print("# waiting time: none. Every layer runs single-threaded in one process, "
          "so no layer queues or waits.")
    print(json.dumps({"correct": result["unexpected_failures"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": selected}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
