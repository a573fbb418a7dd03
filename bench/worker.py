"""One workload process: a fresh interpreter that sets up, then measures.

    python3 bench/worker.py --mode setup|run|trace --workload NAME --seed N --seconds S

``bench/run.py`` starts it and times it.  The worker prints ``READY`` when
set-up ends (liedeform imported, inputs generated, warm-up ops done), then,
in ``run`` and ``trace`` mode, one JSON line with its results.

Before ``READY`` it imports nothing that liedeform does not import itself
(in particular not scipy), so that set-up time moves with liedeform's own
imports.  Checks run between ops with the clock stopped.
"""
from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))   # liedeform is not installed

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402  (imports liedeform)


def parse_args(argv):
    args = dict(zip(argv[::2], argv[1::2]))
    return (args["--mode"], args["--workload"], int(args["--seed"]),
            float(args["--seconds"]), args["--tmp"])


def warm_up(deck, tmp):
    """Run the first op of each kind once, unchecked; the timed loop reports failures."""
    seen = set()
    for spec in deck:
        key = (spec["kind"], spec.get("rep"), spec.get("algebra"))
        if key not in seen:
            seen.add(key)
            try:
                wl.run_op(spec, tmp)
            except (Exception, SystemExit):
                pass


class Tally:
    """Latencies, check outcomes and work units of a sequence of ops.

    Latencies are kept per deck index, so that each op's latency can be taken
    as its best over the passes of a run.
    """

    def __init__(self):
        self.latencies = {}    # deck index -> [seconds, one per pass]
        self.op_units = {}     # deck index -> units of its last run
        self.kinds = {}        # deck index -> op kind
        self.status = {wl.OK: 0, wl.FAILED: 0, wl.DEFECT_REPRODUCED: 0, wl.DEFECT_FIXED: 0}
        self.units = {"steps": 0, "steps_requested": 0, "points": 0, "nondegenerate": 0}
        self.failures = []     # first few unexpected failures
        self.defects = {}      # defect op kind -> last outcome detail

    def time_and_check(self, index, spec, tmp, tracer=None):
        if tracer is not None:
            tracer.op = index
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out, error = wl.run_op(spec, tmp), None
        except (Exception, SystemExit) as exc:    # a raising op is a failed op
            out, error = None, exc
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                status, detail, units = wl.check_op(spec, out, tmp)
            except Exception as exc:               # malformed output
                status, detail, units = wl.FAILED, f"check raised {exc!r}", {}
        else:
            status, detail, units = wl.FAILED, f"op raised {error!r}", {}
        self.latencies.setdefault(index, []).append(latency)
        self.op_units[index] = units
        self.kinds[index] = spec["kind"]
        self.status[status] += 1
        for key, value in units.items():
            self.units[key] += value
        if status == wl.FAILED and len(self.failures) < 5:
            self.failures.append(f"{spec['kind']}: {detail}")
        if spec["kind"].startswith("defect_"):
            self.defects[spec["kind"]] = f"{status}: {detail}"
        return latency

    def summary(self) -> dict:
        """Raw totals, plus each deck op's best latency over the run's passes.

        The best of N repeats is the op's cost with the least interference
        from other load on the host; latencies are never below the true cost.
        The median and the tail are taken over the deck's distinct ops, each
        at its best: the tail is the highest percentile with at least 10 ops
        beyond it.
        """
        raw = sorted(t for times in self.latencies.values() for t in times)
        best = {i: min(times) for i, times in self.latencies.items()}
        ranked = sorted(best.values())
        n = len(ranked)
        tail_index = max(n - 11, 0)                # 10 deck ops lie beyond it
        sweeps = [i for i, kind in self.kinds.items() if kind == "cli_sweep"]
        return {
            "attempted": len(raw),
            "failed": self.status[wl.FAILED] + self.status[wl.DEFECT_REPRODUCED],
            "unexpected_failures": self.status[wl.FAILED],
            "status": self.status,
            "failures": self.failures,
            "defects": self.defects,
            "timed_s": sum(raw),
            "passes": min(len(times) for times in self.latencies.values()),
            "deck_ops": len(best),
            "deck_s": sum(best.values()),
            "deck_steps": sum(self.op_units[i].get("steps", 0) for i in best),
            "sweep_points": sum(self.op_units[i].get("points", 0) for i in sweeps),
            "sweep_s": sum(best[i] for i in sweeps),
            "op_ms_p50": 1e3 * float(np.median(ranked)),
            "op_ms_tail": 1e3 * ranked[tail_index],
            "raw_ms_p50": 1e3 * float(np.median(raw)),
            "raw_ms_tail": 1e3 * raw[max(len(raw) - 11, 0)],
            "raw_tail_percentile": 100.0 * max(len(raw) - 10, 1) / len(raw),
            "tail_percentile": 100.0 * (tail_index + 1) / n,
            "tail_beyond": n - 1 - tail_index,
            **self.units,
        }


def run_timed(deck, tmp, seconds, seed):
    """Closed loop, one client: replay the deck until `seconds` of op time are spent."""
    order_rng = np.random.default_rng([seed, 99])
    tally = Tally()
    timed = 0.0
    order = range(len(deck))
    while timed < seconds:                     # whole deck passes: same mix every run
        for i in order:
            timed += tally.time_and_check(i, deck[i], tmp)
        order = order_rng.permutation(len(deck))
    import resource
    result = tally.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def run_traced(deck, tmp, workload, seed):
    """One deck pass untraced, then the same pass traced; per-layer metrics."""
    from tracer import Tracer
    plain = Tally()
    for i, spec in enumerate(deck):
        plain.time_and_check(i, spec, tmp)
    tracer = Tracer()
    traced = Tally()
    tracer.install()
    try:
        for i, spec in enumerate(deck):
            traced.time_and_check(i, spec, tmp, tracer)
    finally:
        tracer.uninstall()
    out = traced.summary()
    totals = tracer.totals()
    sweep_ops = {i for i, spec in enumerate(deck) if spec["kind"] == "cli_sweep"}
    by_layer = tracer.linalg_calls_by_parent_layer()
    sweep_linalg = tracer.linalg_calls_by_parent_layer(sweep_ops).get("phase_space", 0)
    hvf_calls = totals.get("dynamics.hamiltonian_vector_field", {}).get("calls", 0)
    derived = {
        "dynamics.rhs_per_step": hvf_calls / out["steps"] if out["steps"] else 0.0,
        "dynamics.linalg_calls": by_layer.get("dynamics", 0),
        "dynamics.steps_completed_ratio":
            out["steps"] / out["steps_requested"] if out["steps_requested"] else 0.0,
        "phase_space.linalg_per_point": sweep_linalg / out["points"] if out["points"] else 0.0,
        "phase_space.nondegenerate_ratio":
            out["nondegenerate"] / out["points"] if out["points"] else 0.0,
        "trace.overhead_ratio": out["timed_s"] / plain.summary()["timed_s"],
        "trace.spans": len(tracer.spans),
    }
    out_dir = os.path.join(ROOT, ".bench_runs")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl"))
    out.update(layers={name: {"calls": row["calls"], "self_ms": 1e3 * row["self_s"],
                              "raised": row["raised"]} for name, row in totals.items()},
               derived=derived,
               unexpected_failures=out["unexpected_failures"] + plain.status[wl.FAILED],
               bases={"hvf_calls": hvf_calls, "sweep_linalg_calls": sweep_linalg},
               wrapped=sorted(tracer.names))
    return out


def main(argv):
    mode, workload, seed, seconds, tmp = parse_args(argv)
    os.makedirs(tmp, exist_ok=True)
    deck = wl.make_deck(workload, seed, tmp)
    warm_up(deck, tmp)
    print("READY", flush=True)
    if mode == "setup":
        return 0
    result = run_timed(deck, tmp, seconds, seed) if mode == "run" \
        else run_traced(deck, tmp, workload, seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
