"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/tests

They check the result-line contract, that traced counters repeat exactly on
the same seed (and that RK4 makes 4 vector-field calls per step), that a
declared function the tracer did not wrap fails the run, that set-up imports
nothing liedeform does not, that the checks catch wrong outputs, and that
generated inputs keep away from the rank cutoff.
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONFIG = json.load(fh)
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
COUNT_UNITS = {"count", "calls/step", "calls/point"}


def bench(workload, seed, trace, seconds=1, cwd=ROOT):
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=cwd, capture_output=True, text=True, timeout=180)
    return out


def result_line(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_config_contract():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert 1 <= CONFIG["run_seconds"] <= 60 and isinstance(CONFIG["run_seconds"], int)
    names = [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in CONFIG["workloads"])
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_has_every_end_to_end_metric(workload):
    res = result_line(bench(workload, seed=5, trace=0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result_line(bench(workload, seed=7, trace=1))
    second = result_line(bench(workload, seed=7, trace=1))
    assert list(first["metrics"]) == [m["name"] for m in CONFIG["per_layer"]]
    counts = {m["name"] for m in CONFIG["per_layer"]
              if m["unit"] in COUNT_UNITS or m["name"].endswith("_ratio")
              and m["name"] != "trace.overhead_ratio"}
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"]
    values = {name: row["value"] for name, row in first["metrics"].items()}
    if workload.endswith("_ensemble"):
        assert values["dynamics.rhs_per_step"] == 4            # RK4
        assert values["dynamics.integrate.calls"] > 0
        assert values["dynamics.hamiltonian_vector_field.calls"] > 0
    else:
        assert values["phase_space.linalg_per_point"] > 0
        assert values["cli.main.calls"] > 0


def test_a_declared_function_the_tracer_did_not_wrap_is_an_error():
    declared = [{"name": "dynamics.integrate.calls", "unit": "count"},
                {"name": "dynamics.renamed_away.calls", "unit": "count"}]
    wrapped = {"dynamics.integrate"}
    assert run.select(declared[:1], {}, wrapped) == \
        {"dynamics.integrate.calls": {"value": 0, "unit": "count"}}
    with pytest.raises(run.BenchError):
        run.select(declared, {}, wrapped)


def test_setup_imports_nothing_liedeform_does_not():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import liedeform; before = set(sys.modules); "
            "import json, os, time, io; import workloads; "
            "print(sorted(set(sys.modules) - before - {'workloads'}))")
    out = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src"), BENCH],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    for name in ("worker.py", "workloads.py", "tracer.py"):
        with open(os.path.join(BENCH, name)) as fh:
            assert "import scipy" not in fh.read()


def test_known_defect_ops_reproduce_or_are_fixed(tmp_path):
    rng = np.random.default_rng(0)
    specs = [wl.defect_sl2r_spec(rng), wl.defect_split_spec(str(tmp_path)),
             wl.defect_large_theta_spec(rng, str(tmp_path))]
    for spec in specs:
        status, detail, _ = wl.check_op(spec, wl.run_op(spec, str(tmp_path)), str(tmp_path))
        assert status in (wl.DEFECT_REPRODUCED, wl.DEFECT_FIXED), (spec["kind"], detail)


def test_checks_catch_wrong_outputs(tmp_path):
    deck = wl.make_deck("rigid_ensemble", 3, str(tmp_path))
    spec = next(s for s in deck if s["euler"])
    traj, sub = wl.run_op(spec, str(tmp_path))
    assert wl.check_op(spec, (traj, sub), str(tmp_path))[0] == wl.OK
    traj.pis[-1] *= 1.001
    assert wl.check_op(spec, (traj, sub), str(tmp_path))[0] == wl.FAILED

    deck = wl.make_deck("analysis_cli", 3, str(tmp_path))
    spec = next(s for s in deck if s["kind"] == "cli_omega")
    out = wl.run_op(spec, str(tmp_path))
    assert wl.check_op(spec, out, str(tmp_path))[0] == wl.OK
    path = os.path.join(str(tmp_path), "out-cli_omega")
    with open(path) as fh:
        report = json.load(fh)
    report["rank"] -= 1
    with open(path, "w") as fh:
        json.dump(report, fh)
    assert wl.check_op(spec, out, str(tmp_path))[0] == wl.FAILED


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_points_stay_clear_of_the_cutoff(seed, tmp_path):
    for spec in wl.make_deck("analysis_cli", seed, str(tmp_path)):
        f = wl.ld.get_algebra(spec.get("algebra", "so3")).f
        if spec["kind"] == "cli_sweep":
            thetas, upsilons = wl._sweep_grid(spec, f)
            for theta, ups in zip(thetas, upsilons):
                assert not wl.ambiguous(wl.svd_rank(wl.omega(f, theta, ups, np.zeros(len(f))))[1])
        elif spec["kind"] == "cli_omega":
            M = wl.omega(f, spec["theta"], spec["upsilon"], spec["pi"])
            assert not wl.ambiguous(wl.svd_rank(M)[1])


def test_tracer_restores_every_binding():
    import liedeform
    from liedeform import dynamics, phase_space
    originals = (dynamics.integrate, dynamics.lie_poisson_block, np.linalg.svd,
                 phase_space.DeformedStructure.__init__, liedeform.integrate)
    tracer = Tracer()
    tracer.install()
    try:
        assert dynamics.lie_poisson_block is phase_space.lie_poisson_block
        assert dynamics.lie_poisson_block is not originals[1]
        tracer.active = True
        structure = liedeform.DeformedStructure(liedeform.get_algebra("so3"))
        liedeform.degeneracy(structure, np.zeros(3))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert (dynamics.integrate, dynamics.lie_poisson_block, np.linalg.svd,
            phase_space.DeformedStructure.__init__, liedeform.integrate) == originals
    totals = tracer.totals()
    assert totals["phase_space.degeneracy"]["calls"] == 1
    assert totals["numpy.linalg.svd"]["calls"] == 1
    parents = {sid: name for sid, _, name, *_ in tracer.spans}
    svd = next(s for s in tracer.spans if s[2] == "numpy.linalg.svd")
    assert parents[svd[1]] == "phase_space.degeneracy"


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = bench(WORKLOADS[0], seed=1, trace=0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
