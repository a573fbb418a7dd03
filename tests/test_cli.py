import csv
import json
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import liedeform
from liedeform.algebra import get_algebra, load_algebra, so3
from liedeform import cli, cohomology, phase_space
from liedeform.cli import main, parse_axis
from liedeform.errors import InvalidValue, LieDeformError
from conftest import sheared

GOLDEN = Path(__file__).parent / "golden"


def run(args):
    return main([str(a) for a in args])


def subprocess_env():
    """os.environ with this checkout's liedeform first on PYTHONPATH, for a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(liedeform.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def count_delta2(monkeypatch):
    """Count the cocycle-residual evaluations of cohomology._delta2, its only binding."""
    calls = []
    delta2 = cohomology._delta2

    def counted(*args, **kwargs):
        calls.append(1)
        return delta2(*args, **kwargs)

    monkeypatch.setattr(cohomology, "_delta2", counted)
    return calls


@pytest.fixture()
def so3_file(tmp_path):
    path = tmp_path / "so3.json"
    path.write_text(json.dumps({"name": "so3", "dim": 3, "f": so3().f.tolist()}))
    return path


@pytest.fixture()
def fg_deformation(tmp_path):
    path = tmp_path / "fg.json"
    path.write_text(json.dumps({
        "Theta": [[0.0, 0.5], [-0.5, 0.0]],
        "Upsilon": [[0.0, 0.5], [-0.5, 0.0]],
        "xi": None}))
    return path


class TestValidate:
    def test_registry_name(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["validate", "--algebra", "so3", "-o", out]) == 0
        report = read_json(out)
        assert report["accepted"]
        assert report["antisymmetry_residual"] == 0.0
        assert report["jacobi_residual"] == 0.0
        assert "input_hash" in report and "version" in report

    def test_spec_file(self, so3_file, tmp_path):
        out = tmp_path / "report.json"
        assert run(["validate", "--algebra", so3_file, "-o", out]) == 0
        assert read_json(out)["algebra"] == "so3"

    def test_bad_algebra_exit_2(self, tmp_path):
        f = so3().f.copy()
        f[0, 0, 1], f[0, 1, 0] = 0.3, -0.3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "dim": 3, "f": f.tolist()}))
        assert run(["validate", "--algebra", path]) == 2

    def test_missing_file_exit_2(self):
        assert run(["validate", "--algebra", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("tol, code", [("1e-6", 0), ("1e-10", 2)])
    def test_file_judged_at_its_tol(self, tmp_path, tol, code):
        # residuals of 1e-9: past AXIOM_TOL, so only validate's own --tol can admit the file
        f = so3().f.copy()
        f[0, 1, 2] += 1e-9
        path, out = tmp_path / "loose.json", tmp_path / "report.json"
        path.write_text(json.dumps({"name": "loose", "dim": 3, "f": f.tolist()}))
        assert run(["validate", "--algebra", path, "--tol", tol, "-o", out]) == code
        report = read_json(out)
        assert report["accepted"] == (code == 0)
        assert 0.9e-9 < report["jacobi_residual"] < 1.1e-9

    def test_other_readers_reject_a_file_at_axiom_tol(self, tmp_path, capsys):
        f = so3().f.copy()
        f[0, 1, 2] += 1e-9
        path = tmp_path / "loose.json"
        path.write_text(json.dumps({"name": "loose", "dim": 3, "f": f.tolist()}))
        message = ("structure constants rejected: antisymmetry residual 1.000e-09, "
                   "Jacobi residual 1.000e-09 (tol 1.0e-12)")
        for command in ("cohomology", "omega", "isotropy"):
            assert run([command, "--algebra", path, "-o", tmp_path / "out.json"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(InvalidValue) as info:
            load_algebra(path)
        assert str(info.value) == message
        assert not (tmp_path / "out.json").exists()

    def test_file_with_residuals_that_are_not_finite_exit_2(self, tmp_path, capsys):
        # a report could not carry them: JSON reports are strict
        path, out = tmp_path / "nan.json", tmp_path / "report.json"
        path.write_text('{"name": "nan", "dim": 1, "f": [[[NaN]]]}')
        assert run(["validate", "--algebra", path, "--tol", "1", "-o", out]) == 2
        assert capsys.readouterr().err == ("error: structure constants rejected: antisymmetry "
                                           "residual nan, Jacobi residual nan (tol 1.0e-12)\n")
        assert not out.exists()


class TestCohomology:
    def test_heisenberg_dims(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["cohomology", "--algebra", "heisenberg", "-o", out]) == 0
        report = read_json(out)
        assert report["dims"] == {"Z2": 3, "B2": 1, "H2": 2, "H1": 2}

    def test_exact_theta(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["cohomology", "--algebra", "so3", "--xi", "0,0,1",
                    "-o", out]) == 0
        report = read_json(out)
        assert report["exact"]
        assert np.allclose(report["xi"], [0.0, 0.0, 1.0], atol=1e-12)
        assert report["cocycle_residual"] == 0.0

    def test_inexact_theta(self, tmp_path):
        deform = tmp_path / "def.json"
        deform.write_text(json.dumps({
            "Theta": [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
            "Upsilon": None, "xi": None}))
        out = tmp_path / "report.json"
        assert run(["cohomology", "--algebra", "heisenberg",
                    "--deformation", deform, "-o", out]) == 0
        report = read_json(out)
        assert not report["exact"]
        assert report["xi"] is None

    def test_admits_theta_once(self, monkeypatch, tmp_path):
        # delta2 runs at admission only: the reported residual is admission's, the dims are
        # so3's, computed once (here, before counting, so no earlier test decides the count),
        # and the primitive is solved without admitting Theta again
        cohomology.cohomology_dimensions(get_algebra("so3"))
        calls = count_delta2(monkeypatch)
        out = tmp_path / "report.json"
        assert run(["cohomology", "--algebra", "so3", "--xi", "0,0,1", "-o", out]) == 0
        assert read_json(out)["exact"]
        assert len(calls) == 1


class TestOmega:
    def test_nondegenerate(self, fg_deformation, tmp_path):
        out = tmp_path / "report.json"
        assert run(["omega", "--algebra", "abelian2",
                    "--deformation", fg_deformation, "--pi", "0,0",
                    "-o", out]) == 0
        report = read_json(out)
        assert report["nullity"] == 0 and report["rank"] == 4
        Pi = np.array(report["poisson"])
        assert abs(abs(Pi[2, 3]) - 2.0 / 3.0) < 1e-12
        assert abs(abs(Pi[0, 1]) - 2.0 / 3.0) < 1e-12

    def test_degenerate_reports_null_poisson(self, tmp_path):
        deform = tmp_path / "fg1.json"
        deform.write_text(json.dumps({
            "Theta": [[0.0, 1.0], [-1.0, 0.0]],
            "Upsilon": [[0.0, 1.0], [-1.0, 0.0]], "xi": None}))
        out = tmp_path / "report.json"
        assert run(["omega", "--algebra", "abelian2",
                    "--deformation", deform, "-o", out]) == 0
        report = read_json(out)
        assert report["nullity"] == 2
        assert report["poisson"] is None
        assert len(report["kernel"]) == 4

    def test_darboux_xi(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["omega", "--algebra", "so3", "--xi", "0,0,1",
                    "--pi", "0,0,1", "-o", out]) == 0
        report = read_json(out)
        assert np.allclose(report["darboux_xi"], [0.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("deformation", [
        GOLDEN / "so3-upsilon.json",
        {"Theta": cohomology.delta1_scalar(so3(), [0.5, -1.0, 2.0]).tolist(),
         "Upsilon": [[0.0, 0.3, -0.2], [-0.3, 0.0, 0.7], [0.2, -0.7, 0.0]]},
    ])
    def test_darboux_xi_is_cohomology_xi_with_upsilon(self, tmp_path, deformation):
        # an exact Theta is shifted away whatever Upsilon is: omega reports the xi cohomology does
        if isinstance(deformation, dict):
            path = tmp_path / "deformation.json"
            path.write_text(json.dumps(deformation))
            deformation = path
        reports = {}
        for command in ("omega", "cohomology"):
            out = tmp_path / f"{command}.json"
            assert run([command, "--algebra", "so3", "--deformation", deformation, "-o", out]) == 0
            reports[command] = read_json(out)
        assert reports["cohomology"]["exact"]
        assert reports["omega"]["darboux_xi"] == reports["cohomology"]["xi"]

    def test_non_cocycle_exit_2(self, tmp_path):
        f = np.zeros((4, 4, 4))
        f[:3, :3, :3] = so3().f
        alg = tmp_path / "so3c.json"
        alg.write_text(json.dumps({"name": "so3+R", "dim": 4, "f": f.tolist()}))
        deform = tmp_path / "bad.json"
        Theta = np.zeros((4, 4))
        Theta[2, 3], Theta[3, 2] = 1.0, -1.0
        deform.write_text(json.dumps({"Theta": Theta.tolist(),
                                      "Upsilon": None, "xi": None}))
        assert run(["omega", "--algebra", alg, "--deformation", deform]) == 2

    def test_one_nondegeneracy_decision_per_report(self, monkeypatch, tmp_path):
        # the Poisson tensor of a nondegenerate point is not decided a second time
        calls = []
        nullity_rule = phase_space._nullity

        def counted(*args, **kwargs):
            calls.append(1)
            return nullity_rule(*args, **kwargs)

        monkeypatch.setattr(phase_space, "_nullity", counted)
        deform, out = tmp_path / "fg1.json", tmp_path / "report.json"
        deform.write_text(json.dumps({"Theta": [[0.0, 1.0], [-1.0, 0.0]],
                                      "Upsilon": [[0.0, 1.0], [-1.0, 0.0]], "xi": None}))
        for argv, nullity in ((["--algebra", "so3", "--xi", "0,0,1", "--pi", "1,0,0"], 0),
                              (["--algebra", "so3"], 0),
                              (["--algebra", "abelian2", "--deformation", deform], 2)):
            calls.clear()
            assert run(["omega", *argv, "-o", out]) == 0
            assert read_json(out)["nullity"] == nullity
            assert len(calls) == 1

    def test_darboux_shift_does_not_readmit_theta(self, monkeypatch, tmp_path):
        calls = count_delta2(monkeypatch)
        out = tmp_path / "report.json"
        assert run(["omega", "--algebra", "so3", "--xi", "0,0,1", "--pi", "1,0,0",
                    "-o", out]) == 0
        assert read_json(out)["darboux_xi"] is not None
        assert len(calls) == 1  # admission only

    @pytest.mark.parametrize("entry", ["NaN", "Infinity"])
    def test_non_finite_deformation_exit_2(self, tmp_path, capsys, entry):
        # json reads NaN and Infinity literals; admission must reject them as bad input
        deform = tmp_path / "bad.json"
        deform.write_text('{"Theta": [[0, %s, 0], [0, 0, 0], [0, 0, 0]], "Upsilon": null}' % entry)
        out = tmp_path / "omega.json"
        assert run(["omega", "--algebra", "so3", "--deformation", deform, "-o", out]) == 2
        value = {"NaN": "nan", "Infinity": "inf"}[entry]
        assert capsys.readouterr().err.strip() == (
            f"error: Theta has a non-finite entry {value} at (0, 1)")
        assert not out.exists()


class TestIsotropy:
    def test_so3_axis(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["isotropy", "--algebra", "so3", "--xi", "0,0,1",
                    "-o", out]) == 0
        report = read_json(out)
        assert report["dimension"] == 1
        assert np.allclose(np.abs(report["basis"][0]), [0.0, 0.0, 1.0], atol=1e-12)
        assert report["closure_residual"] < 1e-9

    def test_with_inertia(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["isotropy", "--algebra", "so3",
                    "--inertia", "diag:1,0.5,0.3333333333", "-o", out]) == 0
        assert read_json(out)["dimension"] == 0


class TestSimulate:
    def test_rigid_body(self, tmp_path):
        traj = tmp_path / "traj.csv"
        summary = tmp_path / "summary.json"
        assert run(["simulate", "--algebra", "so3",
                    "--inertia", "diag:1,0.5,0.3333333333",
                    "--pi0", "1,0.1,0", "--T", 2.0, "--dt", 1e-3,
                    "--output", traj, "--summary", summary]) == 0
        report = read_json(summary)
        assert report["energy_drift"] < 1e-8
        assert report["degenerate_at"] is None
        with open(traj) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["t", "pi_0", "pi_1", "pi_2"]
        assert len(rows) == 2002  # header + 2001 samples
        assert float(rows[1][1]) == 1.0

    @pytest.mark.parametrize("name, t, T, dt", [("sl2r", 30, 1.0, 0.01), ("so3", 100, 0.01, 1e-4)])
    def test_a_sheared_basis_keeps_the_casimir_monitor(self, tmp_path, name, t, T, dt):
        # an integer basis in which the old det criterion judged the algebra not semisimple
        algebra = sheared(get_algebra(name), t)
        spec, traj, summary = tmp_path / "sheared.json", tmp_path / "t.csv", tmp_path / "s.json"
        spec.write_text(json.dumps({"name": algebra.name, "dim": 3, "f": algebra.f.tolist()}))
        assert run(["simulate", "--algebra", spec, "--inertia", "identity",
                    "--pi0", "0.3,0.2,0.1", "--T", T, "--dt", dt,
                    "--output", traj, "--summary", summary]) == 0
        with open(traj) as fh:
            casimir = [float(row["casimir"]) for row in csv.DictReader(fh)]
        # RK4's own drift in that basis (sl2r: 4.3e-5, falling about 20-fold per halving of dt)
        drift = read_json(summary)["casimir_drift"]
        assert drift is not None and 0.0 < drift <= 1e-3 * abs(casimir[0])

    def test_degenerate_exit_3(self, tmp_path):
        deform = tmp_path / "fg1.json"
        deform.write_text(json.dumps({
            "Theta": [[0.0, 1.0], [-1.0, 0.0]],
            "Upsilon": [[0.0, 1.0], [-1.0, 0.0]], "xi": None}))
        traj = tmp_path / "traj.csv"
        summary = tmp_path / "summary.json"
        assert run(["simulate", "--algebra", "abelian2",
                    "--deformation", deform, "--inertia", "identity",
                    "--pi0", "1,0", "--T", 1.0, "--dt", 0.1,
                    "--output", traj, "--summary", summary]) == 3
        assert read_json(summary)["degenerate_at"] == 0.0

    def test_determinism(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            traj = tmp_path / f"traj_{tag}.csv"
            summary = tmp_path / f"summary_{tag}.json"
            run(["simulate", "--algebra", "so3",
                 "--inertia", "diag:1,0.5,0.3333333333",
                 "--pi0", "1,0.1,0", "--T", 0.5, "--dt", 1e-2,
                 "--output", traj, "--summary", summary])
            outputs.append((traj.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_non_finite_inertia_exit_2(self, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        assert run(["simulate", "--algebra", "so3", "--inertia", "diag:1,inf,3",
                    "--pi0", "1,0,0", "--T", 1.0, "--dt", 0.5, "--output", traj]) == 2
        assert capsys.readouterr().err == "error: inertia has a non-finite entry inf at (1, 1)\n"
        assert not traj.exists()

    def test_blow_up_exit_2_without_warnings(self, tmp_path):
        # a fresh interpreter: numpy's RuntimeWarnings would reach stderr with their source lines
        traj = tmp_path / "traj.csv"
        done = subprocess.run([sys.executable, "-m", "liedeform.cli", "simulate",
                               "--algebra", "so3", "--inertia", "diag:1,2,3",
                               "--pi0", "1e200,3e200,-2e200", "--T", "1", "--dt", "0.5",
                               "-o", str(traj)],
                              capture_output=True, text=True, env=subprocess_env())
        assert done.returncode == 2
        assert done.stderr == "error: non-finite state at t = 0.5\n"
        assert not traj.exists()


    def test_monitor_overflow_exit_2(self, tmp_path, capsys):
        # an equilibrium at |pi| = 1e200: every state is finite, but the energy overflows
        traj, summary = tmp_path / "traj.csv", tmp_path / "summary.json"
        assert run(["simulate", "--algebra", "so3", "--inertia", "diag:1,2,3",
                    "--pi0", "1e200,0,0", "--T", "1", "--dt", "0.5",
                    "-o", traj, "--summary", summary]) == 2
        assert capsys.readouterr().err == "error: non-finite energy monitor at t = 0\n"
        assert not traj.exists() and not summary.exists()

    @pytest.mark.parametrize("T, dt, message", [
        ("1", "0", "dt must be positive and finite, got 0.0"),
        ("1", "-0.1", "dt must be positive and finite, got -0.1"),
        ("-1", "0.1", "T must be non-negative and finite, got -1.0"),
        ("1", "1e-320", "T / dt must be finite, got T = 1.0, dt = 1e-320"),
    ])
    def test_bad_step_or_time_exit_2(self, tmp_path, capsys, T, dt, message):
        traj, summary = tmp_path / "traj.csv", tmp_path / "summary.json"
        assert run(["simulate", "--algebra", "so3", "--inertia", "identity",
                    "--pi0", "1,0,0", "--T", T, "--dt", dt,
                    "-o", traj, "--summary", summary]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not traj.exists() and not summary.exists()


@pytest.mark.parametrize("argv, message", [
    (["omega", "--pi", "1,2"], "--pi: expected 3 components, got 2"),
    (["omega", "--xi", "1,2,3,4"], "--xi: expected 3 components, got 4"),
    (["sweep", "--pi0", "1", "--axis", "xi:0=0:1:2"], "--pi0: expected 3 components, got 1"),
    (["simulate", "--pi0", "1,2", "--inertia", "identity", "--T", "1", "--dt", "0.1"],
     "--pi0: expected 3 components, got 2"),
    (["simulate", "--pi0", "1,2,3", "--inertia", "diag:1,2", "--T", "1", "--dt", "0.1"],
     "--inertia: expected 3 components, got 2"),
])
def test_wrong_vector_length_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run([argv[0], "--algebra", "so3", *argv[1:], "-o", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, name", [
    (["omega", "--pi"], "pi"),
    (["sweep", "--axis", "xi:0=0:1:2", "--pi0"], "pi"),
    (["simulate", "--inertia", "identity", "--T", "1", "--dt", "0.05", "--pi0"], "pi0"),
])
def test_non_finite_momentum_exit_2(tmp_path, capsys, argv, name, bad):
    # rejected before LAPACK ("SVD did not converge") and before the first step
    out = tmp_path / "out"
    assert run([argv[0], "--algebra", "so3", *argv[1:], f"0,{bad},0", "-o", out]) == 2
    assert capsys.readouterr().err == f"error: {name} has a non-finite entry {bad} at 1\n"
    assert not out.exists()


SIMULATE = ["simulate", "--pi0", "1,0,0", "--T", "1", "--dt", "0.1"]


@pytest.mark.parametrize("content, key, shape", [
    ({"xi": [1, 2]}, "xi", (3,)),
    ({"xi": "abc"}, "xi", (3,)),
    ({"Theta": "x"}, "Theta", (3, 3)),
    ({"Upsilon": "x"}, "Upsilon", (3, 3)),
    ({"Upsilon": [[0, 1, 0], [-1, 0, "x"], [0, 0, 0]]}, "Upsilon", (3, 3)),
])
def test_deformation_value_that_is_not_numbers_exit_2(tmp_path, capsys, content, key, shape):
    # the file and the key are named, by a toolkit error that is not a bare ValueError
    path, out = tmp_path / "deformation.json", tmp_path / "out"
    path.write_text(json.dumps(content))
    assert run(["omega", "--algebra", "so3", "--deformation", path, "-o", out]) == 2
    assert capsys.readouterr().err == f"error: {path}: {key!r} must be a {shape} array of numbers\n"
    assert not out.exists()
    with pytest.raises(LieDeformError) as info:
        phase_space.load_deformation(path, so3())
    assert not isinstance(info.value, ValueError)


@pytest.mark.parametrize("inline_xi", [False, True])
def test_deformation_that_gives_theta_twice_exit_2(tmp_path, capsys, inline_xi):
    # Theta with xi in one file, or a file with --xi: neither value may be dropped unread
    path, out = tmp_path / "deformation.json", tmp_path / "out"
    path.write_text(json.dumps({"Theta": np.zeros((3, 3)).tolist(),
                                **({} if inline_xi else {"xi": [0, 0, 1]})}))
    xi = ["--xi", "1,2,3"] if inline_xi else []
    assert run(["omega", "--algebra", "so3", "--deformation", path, *xi, "-o", out]) == 2
    keys = "--deformation and --xi" if inline_xi else f"{path}: 'Theta' and 'xi'"
    assert capsys.readouterr().err == f"error: {keys} both give Theta; give one of them\n"
    assert not out.exists()
    with pytest.raises(LieDeformError):
        cli.resolve_structure(cli._parser().parse_args(
            ["omega", "--algebra", "so3", "--deformation", str(path), *xi]), so3())


def test_theta_from_one_key_keeps_its_input_hash(tmp_path):
    # Theta given once, by a file's Theta or xi or by --xi, hashes alike
    xi = np.array([0.5, -1.0, 2.0])
    specs = {"Theta": {"Theta": (-np.einsum('m,mab->ab', xi, so3().f)).tolist()},
             "xi": {"xi": xi.tolist()}}
    hashes = []
    for name, content in specs.items():
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out.json"
        path.write_text(json.dumps(content))
        assert run(["omega", "--algebra", "so3", "--deformation", path, "-o", out]) == 0
        hashes.append(read_json(out)["input_hash"])
    assert run(["omega", "--algebra", "so3", "--xi", "0.5,-1,2", "-o", tmp_path / "inline"]) == 0
    hashes.append(read_json(tmp_path / "inline")["input_hash"])
    assert len(set(hashes)) == 1


@pytest.mark.parametrize("content", ["x", {"a": 1}, [[1, 2], [3]]])
def test_algebra_file_that_is_not_numbers_exit_2(tmp_path, capsys, content):
    # numpy's conversion errors name neither the file nor the key
    path, out = tmp_path / "algebra.json", tmp_path / "out"
    path.write_text(json.dumps({"name": "x", "dim": 3, "f": content}))
    assert run(["validate", "--algebra", path, "-o", out]) == 2
    assert capsys.readouterr().err == f"error: {path}: 'f' must be an array of numbers\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["validate", "--algebra"],
                                  ["omega", "--algebra", "so3", "--deformation"],
                                  ["isotropy", "--algebra", "so3", "--inertia"]])
def test_spec_file_that_is_not_text_exit_2(tmp_path, capsys, argv):
    # UnicodeDecodeError is a ValueError, but neither bad JSON nor an unreadable path
    path, out = tmp_path / "binary.json", tmp_path / "out"
    path.write_bytes(b"\xff")
    assert run([*argv, path, "-o", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "decode byte 0xff" in err
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("argv, content, message", [
    (SIMULATE + ["--inertia"], [[1, 0], [0, 1]],
     "--inertia: expected a 3 x 3 matrix, got shape (2, 2)"),
    (SIMULATE + ["--inertia"], {"I_inv": [1, 2, 3]},
     "--inertia: expected a 3 x 3 matrix, got shape (3,)"),
    (["isotropy", "--inertia"], [[1, 0], [0, 1]],
     "--inertia: expected a 3 x 3 matrix, got shape (2, 2)"),
])
def test_wrong_matrix_shape_exit_2(tmp_path, capsys, argv, content, message):
    # file matrices are checked against the algebra before numpy can meet them
    path, out = tmp_path / "matrix.json", tmp_path / "out"
    path.write_text(json.dumps(content))
    assert run([argv[0], "--algebra", "so3", *argv[1:], path, "-o", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_inertia_file_gives_the_bytes_of_the_diagonal_option(tmp_path):
    # a valid --inertia file, as an object or as a bare list, reads as diag:1,0.5,0.25 does
    matrix = [[1, 0, 0], [0, 0.5, 0], [0, 0, 0.25]]
    specs = {"diag": "diag:1,0.5,0.25"}
    for name, content in (("object", {"I_inv": matrix}), ("list", matrix)):
        specs[name] = tmp_path / f"{name}.json"
        specs[name].write_text(json.dumps(content))
    outputs = {}
    for name, spec in specs.items():
        files = [tmp_path / f"{name}.{ext}" for ext in ("csv", "summary.json", "isotropy.json")]
        assert run(["simulate", "--algebra", "so3", "--xi", "0,0,1", "--inertia", spec,
                    "--pi0", "1,0.1,0.2", "--T", 0.5, "--dt", 0.05,
                    "--output", files[0], "--summary", files[1]]) == 0
        assert run(["isotropy", "--algebra", "so3", "--xi", "0,0,1", "--inertia", spec,
                    "-o", files[2]]) == 0
        outputs[name] = [path.read_bytes() for path in files]
    assert outputs["object"] == outputs["list"] == outputs["diag"]


@pytest.mark.parametrize("argv", [SIMULATE + ["--inertia"], ["isotropy", "--inertia"]])
@pytest.mark.parametrize("content", ["so3", {"I_inv": "x"}, [[1, 0, 0], [0, 1], [0, 0, 1]],
                                     {"I_inv": {"a": 1}}, [[1, 0, 0], [0, "x", 0], [0, 0, 1]]])
def test_inertia_file_that_is_not_numbers_exit_2(tmp_path, capsys, argv, content):
    # a string, a ragged list or an object names the option and the file, not numpy's float()
    path, out = tmp_path / "inertia.json", tmp_path / "out"
    path.write_text(json.dumps(content))
    assert run([argv[0], "--algebra", "so3", *argv[1:], path, "-o", out]) == 2
    assert capsys.readouterr().err == (
        f"error: --inertia: {path}: expected a 3 x 3 matrix of numbers\n")
    assert not out.exists()


@pytest.mark.parametrize("option, content, message", [
    ("--algebra", {"name": "so3", "dim": 3}, "{path}: missing key 'f'"),
    ("--algebra", {"name": "so3", "f": so3().f.tolist()}, "{path}: missing key 'dim'"),
    ("--algebra", {"dim": 3, "f": so3().f.tolist()}, "{path}: missing key 'name'"),
    ("--inertia", {"I": np.eye(3).tolist()}, "--inertia: {path}: missing key 'I_inv'"),
])
def test_missing_key_exit_2(tmp_path, capsys, option, content, message):
    path, out = tmp_path / "spec.json", tmp_path / "out"
    path.write_text(json.dumps(content))
    assert run(["isotropy", "--algebra", "so3", option, path, "-o", out]) == 2
    # a KeyError's str() quotes its message
    assert capsys.readouterr().err == f"error: {message.format(path=path)!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("option", ["--algebra", "--deformation", "--inertia"])
@pytest.mark.parametrize("content", [[1, 2], 5, "so3"])
def test_spec_file_that_is_not_a_json_object_exit_2(tmp_path, capsys, option, content):
    # a list, a number or a string at the top level is bad input, not an AttributeError
    path, out = tmp_path / "spec.json", tmp_path / "out"
    path.write_text(json.dumps(content))
    algebra = [] if option == "--algebra" else ["--algebra", "so3"]
    assert run(["isotropy", *algebra, option, path, "-o", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if option != "--inertia":  # InvalidInput names the file
        assert f"{path}: expected a JSON object, got {type(content).__name__}" in err
    assert not out.exists()


INTERNAL_ERROR_SCRIPT = """
import sys
from liedeform import cli

def cmd_validate(args, algebra):
    raise KeyError("internal")

cli.cmd_validate = cmd_validate
sys.exit(cli.main(["validate", "--algebra", "so3"]))
"""


def test_an_internal_key_error_exits_1_with_a_traceback():
    # exit 2 means bad input; a KeyError from the program itself is a bug, not a verdict
    done = subprocess.run([sys.executable, "-c", INTERNAL_ERROR_SCRIPT],
                          capture_output=True, text=True, env=subprocess_env())
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("Traceback (most recent call last):\n")
    assert done.stderr.endswith("KeyError: 'internal'\n")


def test_an_internal_value_error_exits_1_with_a_traceback():
    # bad input raises InvalidValue; a bare ValueError from the program itself is a bug
    done = subprocess.run([sys.executable, "-c",
                           INTERNAL_ERROR_SCRIPT.replace("KeyError", "ValueError")],
                          capture_output=True, text=True, env=subprocess_env())
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("Traceback (most recent call last):\n")
    assert done.stderr.endswith("ValueError: internal\n")


def below_4_gib():
    """preexec_fn: an address-space limit, so a huge allocation fails at once on any host."""
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("argv, shape", [
    (["simulate", "--algebra", "so3", "--inertia", "identity", "--pi0", "1,0,0",
      "--T", "1e12", "--dt", "1"], "(1000000000001,)"),
    (["sweep", "--algebra", "so3", "--axis", "xi:0=0:1:1000000000000"], "(1000000000000,)"),
])
def test_an_input_too_large_to_allocate_exit_2(tmp_path, argv, shape):
    # one BLAS thread: its buffers stay well inside the limit on a host with many cores
    out = tmp_path / "out.csv"
    done = subprocess.run([sys.executable, "-m", "liedeform.cli", *argv, "-o", str(out)],
                          capture_output=True, text=True, preexec_fn=below_4_gib,
                          env={**subprocess_env(), "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: Unable to allocate 7.28 TiB for an array with shape "
                                  + shape)
    assert done.stderr.count("\n") == 1
    assert not out.exists()


def _resolve_inertia_string(tmp):
    (tmp / "inertia.json").write_text(json.dumps({"I_inv": "x"}))
    cli.resolve_inertia(str(tmp / "inertia.json"), 3)


@pytest.mark.parametrize("call", [
    lambda tmp: liedeform.LieAlgebra.from_structure_constants("x", np.ones((2, 2, 2))),
    lambda tmp: liedeform.InertiaTensor(np.ones((2, 3))),
    lambda tmp: liedeform.InertiaTensor([[1.0, 2.0], [0.0, 1.0]]),
    lambda tmp: liedeform.InertiaTensor(-np.eye(2)),
    lambda tmp: liedeform.integrate(liedeform.DeformedStructure(so3()),
                                    liedeform.InertiaTensor.identity(3), [np.nan, 0, 0],
                                    T=1.0, dt=0.1),
    lambda tmp: liedeform.integrate(liedeform.DeformedStructure(so3()),
                                    liedeform.InertiaTensor.identity(3), [1.0, 0, 0],
                                    T=1.0, dt=0.0),
    lambda tmp: liedeform.euler_reference(liedeform.InertiaTensor.identity(2), [1, 0],
                                          T=1.0, dt=0.1),
    lambda tmp: get_algebra("abelian0"),
    lambda tmp: cli.parse_vector("1,a", 2, "--pi"),
    lambda tmp: cli.parse_vector("1", 2, "--pi"),
    lambda tmp: cli.parse_axis("theta:0,1=0:1"),
    lambda tmp: cli.parse_axis("bogus:0,1=0:1:2"),
    lambda tmp: cli.parse_axis("xi:0,1=0:1:2"),
    lambda tmp: cli.resolve_inertia("diag:1,x", 2),
    _resolve_inertia_string,
    lambda tmp: phase_space._poisson(np.zeros((2, 2))),
])
def test_bad_input_raises_invalid_value(tmp_path, call):
    # a toolkit error, so main exits 2, and a ValueError, as these sites raised before
    with pytest.raises(InvalidValue) as info:
        call(tmp_path)
    assert isinstance(info.value, LieDeformError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("argv, message", [
    (["omega", "--algebra", "so3", "--pi=1e308,1e308,1e308", "--deformation", "{theta}"],
     "K = I + C(pi) Upsilon has a non-finite entry"),
    (["simulate", "--algebra", "so3", "--deformation", "{upsilon}", "--inertia", "identity",
      "--pi0=1e308,1e308,1e308", "--T", "0.1", "--dt", "0.05", "--summary", os.devnull],
     "K = I + C(pi) Upsilon has a non-finite entry at t = 0"),
    pytest.param(["isotropy", "--algebra", "sl2r", "--deformation", "{upsilon}",
                  "--inertia=diag:1e308,1e308,1e308"],
                 "the Lie-derivative matrix has a non-finite entry -inf at (10, 0)",
                 id="isotropy-non-finite-lie-derivative"),
    (["omega", "--algebra", "so3", "--deformation", "{upsilon}"],
     "the inverse of the two-form matrix is not finite"),
])
def test_overflow_in_a_decision_exit_2(tmp_path, argv, message):
    # numpy's LinAlgError (a ValueError) where C Upsilon overflows is bad input, not a bug; a
    # fresh interpreter, as numpy's RuntimeWarnings are errors under the test configuration:
    # the error line is all of stderr, with no RuntimeWarning printed ahead of it
    A = np.zeros((3, 3))
    A[0, 1], A[1, 0] = 1e308, -1e308
    files = {key: tmp_path / f"{key}.json" for key in ("theta", "upsilon")}
    for key, path in files.items():
        path.write_text(json.dumps({key.capitalize(): A.tolist()}))
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "liedeform.cli",
                           *[a.format(**files) for a in argv], "-o", str(out)],
                          capture_output=True, text=True, env=subprocess_env())
    assert done.returncode == 2
    assert done.stderr == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["omega", "--algebra", "so3", "--pi=1e308,1e308,1e308", "--deformation", "{upsilon}"],
    ["sweep", "--algebra", "so3", "--pi0=1e308,1e308,1e308", "--deformation", "{upsilon}"],
    ["sweep", "--algebra", "so3", "--pi0=1e308,1e308,1e308", "--deformation", "{upsilon}",
     "--rank-tol", "0.5"],
])
def test_infinite_k_exit_2(tmp_path, argv):
    # C(pi) is finite and C Upsilon overflows to inf: no count of K's singular values holds
    path, out = tmp_path / "upsilon.json", tmp_path / "out"
    path.write_text('{"Upsilon": [[0, 1e308, 0], [-1e308, 0, 0], [0, 0, 0]]}')
    done = subprocess.run([sys.executable, "-m", "liedeform.cli",
                           *[a.format(upsilon=path) for a in argv], "-o", str(out)],
                          capture_output=True, text=True, env=subprocess_env())
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: K = I + C(pi) Upsilon has a non-finite entry\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["omega", "--algebra", "so3", "--pi", "1e308,1e308,1e308"],
                                  ["sweep", "--algebra", "so3", "--pi0", "1e308,1e308,1e308"],
                                  # LU meets a zero pivot, where K = I is nondegenerate
                                  ["omega", "--algebra", "so3", "--xi=1e308,1e308,0"],
                                  ["sweep", "--algebra", "so3", "--axis", "xi:0=0:1e308:3"]])
def test_overflowing_poisson_tensor_exit_2(tmp_path, argv):
    # a fresh interpreter: numpy's RuntimeWarnings would reach stderr with their source lines
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "liedeform.cli", *argv, "-o", str(out)],
                          capture_output=True, text=True, env=subprocess_env())
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: the inverse of the two-form matrix is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["omega", "cohomology"])
def test_overflowing_cocycle_residual_exit_2(tmp_path, command):
    # a fresh interpreter: numpy's RuntimeWarnings would reach stderr with their source lines
    deform, out = tmp_path / "deformation.json", tmp_path / "out.json"
    Theta = 1e308 * np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -1.0, 0.0]])
    deform.write_text(json.dumps({"Theta": Theta.tolist()}))
    done = subprocess.run([sys.executable, "-m", "liedeform.cli", command, "--algebra", "sl2r",
                           "--deformation", str(deform), "-o", str(out)],
                          capture_output=True, text=True, env=subprocess_env())
    assert done.returncode == 2
    assert done.stderr == "error: Theta is not a two-cocycle: residual nan > 1.000e-12\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["omega", "--algebra", "so3", "--pi", "1,a,2"], "--pi: 'a' is not a number"),
    (["omega", "--algebra", "so3", "--xi", "1,0,0x"], "--xi: '0x' is not a number"),
    (["sweep", "--algebra", "so3", "--axis", "xi:0=0:1:2", "--pi0", "1,,0"],
     "--pi0: '' is not a number"),
    (["simulate", "--algebra", "so3", "--pi0", "1,0,0", "--inertia", "diag:1,x,3",
      "--T", "1", "--dt", "0.1"], "--inertia: 'x' is not a number"),
    (["omega", "--algebra", "abelian"],
     "registry algebra 'abelian': abelian<N> needs a positive integer N"),
    (["omega", "--algebra", "abelianx"],
     "registry algebra 'abelianx': abelian<N> needs a positive integer N"),
    (["omega", "--algebra", "abelian0"],
     "registry algebra 'abelian0': abelian<N> needs a positive integer N"),
])
def test_bad_input_names_the_option_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run([*argv, "-o", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, option, value", [
    (["omega", "--algebra", "so3"], "--pi", "-0.5,1,0"),
    (["omega", "--algebra", "so3", "--pi", "1,2,3"], "--xi", "-1,0,0"),
    (["sweep", "--algebra", "so3", "--axis", "xi:0=-1:1:3"], "--pi0", "-1,0,0"),
    (["simulate", "--algebra", "so3", "--inertia", "identity", "--T", "0.1", "--dt", "0.05",
      "--summary", os.devnull], "--pi0", "-1e-3,0.5,-0"),
])
def test_vector_value_with_a_leading_minus(tmp_path, argv, option, value):
    # argparse alone reads a spaced -0.5,1,0 as an unknown option and exits 2
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run([*argv, option, value, "-o", spaced]) == 0
    assert run([*argv, f"{option}={value}", "-o", joined]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    if argv[0] == "omega":  # through sys.argv, as the console script reads it
        done = subprocess.run([sys.executable, "-m", "liedeform.cli", *argv, option, value],
                              capture_output=True, text=True, env=subprocess_env(), check=True)
        assert done.stdout == joined.read_text()


def test_an_option_after_a_vector_option_stays_an_option(tmp_path, capsys):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as info:
        run(["omega", "--algebra", "so3", "--pi", "-o", out])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --pi: expected one argument\n")
    assert not out.exists()


def exit_code(args):
    """main's exit code, whether it returns it or argparse exits with it."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


SIMULATE = ["simulate", "--algebra", "so3", "--inertia", "identity", "--pi0", "1,0,0"]


@pytest.mark.parametrize("argv, option, value, message", [
    (["omega", "--algebra", "so3"], "--rank-tol", "-1e-3", "error: --rank-tol must lie in (0, 1)"),
    ([*SIMULATE, "--dt", "0.1"], "--T", "-1e-2",
     "error: T must be non-negative and finite, got -0.01"),
    ([*SIMULATE, "--T", "1"], "--dt", "-1e-2", "error: dt must be positive and finite, got -0.01"),
    (["validate", "--algebra", "so3"], "--tol", "-1e-3",
     "error: --tol must be non-negative and finite"),
])
def test_scalar_value_with_a_leading_minus(tmp_path, capsys, argv, option, value, message):
    # argparse alone reads a spaced -1e-3 as an unknown option: "expected one argument"
    outputs = []
    for args in ([*argv, option, value], [*argv, f"{option}={value}"]):
        if args[0] == "simulate":
            args += ["-o", tmp_path / "traj.csv"]
        assert exit_code(args) == 2
        outputs.append(capsys.readouterr())
    assert message in outputs[0].out + outputs[0].err
    assert outputs[0] == outputs[1]
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("argv", [[*SIMULATE, "--dt", "0.1", "--T"],
                                  [*SIMULATE, "--T", "1", "--dt"]])
def test_an_option_after_a_scalar_option_stays_an_option(tmp_path, capsys, argv):
    assert exit_code([*argv, "-o", tmp_path / "traj.csv"]) == 2
    assert capsys.readouterr().err.endswith(f"error: argument {argv[-1]}: expected one argument\n")
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("command", ["omega", "cohomology"])
def test_one_dimensional_algebra(tmp_path, command):
    # no pairs a < b: Theta = 0 is exact, with the primitive xi = 0
    out = tmp_path / "report.json"
    assert run([command, "--algebra", "abelian1", "-o", out]) == 0
    report = read_json(out)
    assert report["darboux_xi" if command == "omega" else "xi"] == [0.0]


class TestOneVerdict:
    def test_omega_and_simulate_agree_across_the_cut(self, tmp_path):
        # abelian2, Theta = J, Upsilon = (1 - eps) J, pi = 0: K = eps I, outside the certificate
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        deform, report = tmp_path / "deformation.json", tmp_path / "omega.json"
        codes = set()
        for eps in np.logspace(-12, -8, 17):
            deform.write_text(json.dumps({"Theta": J.tolist(), "Upsilon": ((1 - eps) * J).tolist()}))
            assert run(["omega", "--algebra", "abelian2", "--deformation", deform,
                        "--pi", "0,0", "-o", report]) == 0
            code = run(["simulate", "--algebra", "abelian2", "--deformation", deform,
                        "--inertia", "identity", "--pi0", "0,0", "--T", 0.1, "--dt", 0.01,
                        "-o", tmp_path / "traj.csv", "--summary", tmp_path / "summary.json"])
            assert (read_json(report)["nullity"] > 0) == (code == 3), eps
            codes.add(code)
        assert codes == {0, 3}


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ["cohomology", "--algebra", "so3", "--tol", "1e-9"],
        ["isotropy", "--algebra", "so3", "--rank-tol", "1e-3"],
        ["validate", "--algebra", "so3", "--rank-tol", "1e-3"],
        ["omega", "--algebra", "so3", "--tol", "1e-9"],
        # no output reads a reconstructed group element, so simulate has no --rep
        ["simulate", "--algebra", "so3", "--inertia", "identity", "--pi0", "1,0,0",
         "--T", "1", "--dt", "0.1", "-o", "traj.csv", "--rep", "so3"],
    ])
    def test_options_only_where_read(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where an accepted simulate would write its CSV
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("value", ["0", "1", "2.5", "-1e-3", "nan"])
    def test_rank_tol_outside_unit_interval_exit_2(self, value, capsys):
        with pytest.raises(SystemExit) as info:
            main(["omega", "--algebra", "so3", f"--rank-tol={value}"])
        assert info.value.code == 2
        assert "error: --rank-tol must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1e-3", "nan", "inf", "-inf"])
    def test_tol_negative_or_not_finite_exit_2(self, value, capsys):
        # a NaN or negative tolerance used to reject so3 with both residuals 0.0, unexplained
        with pytest.raises(SystemExit) as info:
            main(["validate", "--algebra", "so3", f"--tol={value}"])
        assert info.value.code == 2
        assert "error: --tol must be non-negative and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [[], ["--tol", "0"]])
    def test_tol_zero_or_default_accepted(self, tol, capsys):
        assert main(["validate", "--algebra", "so3", *tol]) == 0
        assert '"accepted": true' in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--algebra", "so3", "--inertia", "identity", "--pi0", "1,0,0",
          "--T", "1", "--dt", "0.1"], "simulate requires --output for the trajectory CSV"),
        (["sweep", "--algebra", "so3", "--axis", "xi:0=0:1:2"],
         "sweep requires --output for the grid CSV"),
    ])
    def test_csv_commands_without_output_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_reports_are_strict_json(self, tmp_path):
        with pytest.raises(ValueError):
            cli.emit_report({"drift": float("nan")}, {}, tmp_path / "report.json")


class TestSweep:
    def test_fg_hyperbola(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(["sweep", "--algebra", "abelian2",
                    "--axis", "theta:0,1=0:2:9", "--axis", "upsilon:0,1=0:2:9",
                    "--output", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 81
        degenerate = {(float(r["theta_0_1"]), float(r["upsilon_0_1"]))
                      for r in rows if r["nullity"] == "2"}
        assert degenerate == {(0.5, 2.0), (1.0, 1.0), (2.0, 0.5)}
        regular = [r for r in rows if r["nullity"] == "0"]
        assert all(r["poisson_qq"] != "" for r in regular)

    def test_empty_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(["sweep", "--algebra", "abelian2",
                    "--axis", "theta:0,1=0:2:0", "--output", out]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1  # header only

    def test_xi_sweep_never_degenerate(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(["sweep", "--algebra", "so3", "--axis", "xi:2=-2:2:11",
                    "--pi0", "0.3,0.1,0.2", "--output", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        assert all(r["nullity"] == "0" for r in rows)

    def test_bad_axis_exit_2(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run(["sweep", "--algebra", "abelian2",
                    "--axis", "bogus:0,1=0:1:2", "--output", out]) == 2
        # indices out of range (also negative ones) and a repeated pair index
        for axis in ("theta:0,5=0:1:2", "xi:7=0:1:2", "upsilon:0,-1=0:1:2", "theta:1,1=0:1:2"):
            capsys.readouterr()
            assert run(["sweep", "--algebra", "so3", "--axis", axis, "--output", out]) == 2
            assert "must be distinct and in 0..2" in capsys.readouterr().err
        # a negative count is a bad spec, not an empty grid (a count of 0 is one)
        assert run(["sweep", "--algebra", "abelian2", "--axis", "theta:0,1=0:2:-3",
                    "--output", out]) == 2
        assert capsys.readouterr().err.startswith("error: bad axis spec 'theta:0,1=0:2:-3'")
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["theta:0,1=0:inf:3", "theta:0,1=nan:1:3",
                                      "upsilon:0,1=-inf:0:1", "xi:0=nan:1:0",
                                      "theta:0,1=-1e308:1e308:3"])
    def test_non_finite_axis_exit_2(self, tmp_path, capsys, axis):
        # not numpy's linspace RuntimeWarning (an error under the test configuration)
        out = tmp_path / "grid.csv"
        assert run(["sweep", "--algebra", "so3", "--axis", axis, "--output", out]) == 2
        assert capsys.readouterr().err == (
            f"error: bad axis spec {axis!r}: start, stop and every point must be finite\n")
        assert not out.exists()

    def test_rejects_non_cocycle_exit_2(self, tmp_path, capsys):
        f = np.zeros((4, 4, 4))
        f[:3, :3, :3] = so3().f
        spec = tmp_path / "so3r.json"
        spec.write_text(json.dumps({"name": "so3+R", "dim": 4, "f": f.tolist()}))
        out = tmp_path / "grid.csv"
        assert run(["sweep", "--algebra", spec, "--axis", "theta:0,3=-1:1:3",
                    "--output", out]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: Theta is not a two-cocycle: residual 1.000e+00 > 1.000e-12")
        assert not out.exists()


class TestParserReuse:
    def test_repeated_sweeps_match_separate_runs(self, tmp_path):
        # main reuses one parser; axes must not leak between calls through the append default
        sweeps = [["sweep", "--algebra", "so3", "--axis", "xi:0=-1:1:3", "--axis", "xi:2=0:1:2"],
                  ["sweep", "--algebra", "so3", "--axis", "upsilon:1,2=-2:2:5"]]
        separate = []
        for k, argv in enumerate(sweeps):
            out = tmp_path / f"separate{k}.csv"
            subprocess.run([sys.executable, "-m", "liedeform.cli", *argv, "-o", str(out)],
                           check=True, env=subprocess_env())
            separate.append(out.read_bytes())
        with pytest.raises(SystemExit):
            main(["sweep", "--algebra", "so3", "--axis", "xi:1=0:1:2", "--bogus"])
        for k, argv in enumerate(sweeps):
            out = tmp_path / f"in_process{k}.csv"
            assert run(argv + ["-o", out]) == 0
            assert out.read_bytes() == separate[k]

    def test_dispatch_reads_the_module_binding(self, monkeypatch, tmp_path):
        # the parser is built once; a cmd_* patched (or traced) later must still be the one run
        assert run(["validate", "--algebra", "so3", "-o", tmp_path / "v.json"]) == 0
        monkeypatch.setattr(cli, "cmd_validate", lambda args, algebra: 7)
        assert run(["validate", "--algebra", "so3"]) == 7


class TestReportRoundTrip:
    def test_json_reparses_with_declared_dim(self, tmp_path):
        out = tmp_path / "report.json"
        run(["omega", "--algebra", "so3", "--xi", "0,0,1", "--pi", "1,0,0",
             "-o", out])
        report = read_json(out)
        assert np.array(report["poisson"]).shape == (6, 6)
        assert len(report["darboux_xi"]) == 3


def dumps(value) -> str:
    """The report text json.dumps gives, which cli._json_text reproduces."""
    return json.dumps(value, indent=2, sort_keys=True, default=cli._jsonable, allow_nan=False)


FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308])
ARRAYS = hnp.arrays(np.float64, st.sampled_from([(0,), (3, 0), (2, 2), (3,)]), elements=FLOATS)
LEAVES = (FLOATS | FLOATS.map(np.float64) | st.booleans() | st.none() | st.integers()
          | st.text() | ARRAYS | st.lists(FLOATS))


class TestReportText:
    @settings(max_examples=150, deadline=None)
    @given(st.recursive(LEAVES, lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
                        | st.dictionaries(st.text(), inner), max_leaves=20))
    @example([-0.0, 5e-324, 1.7976931348623157e308, 1.0, 2])
    @example({"\u00e9t\u00e9": ["\u2202\u03c0", True, None, {}, [], ()], "a": np.zeros((3, 0))})
    def test_the_bytes_of_json_dumps(self, value):
        assert cli._json_text(value) == dumps(value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [1.0, x], lambda x: [1, x],
                                      lambda x: {"a": np.array([[0.0, x]])}],
                             ids=["scalar", "row", "mixed-row", "array"])
    def test_non_finite_float_raises_value_error(self, bad, wrap):
        for encode in (dumps, cli._json_text):
            with pytest.raises(ValueError, match="^Out of range float values are not JSON"):
                encode(wrap(bad))

    @pytest.mark.parametrize("value", [np.int64(3), [1.0, np.int64(3)], {"a": np.float32(1)}])
    def test_numpy_scalar_that_is_not_a_float_raises_type_error(self, value):
        for encode in (dumps, cli._json_text):
            with pytest.raises(TypeError, match="is not JSON serializable$"):
                encode(value)


OMEGA = ["omega", "--algebra", "so3", "--xi", "0,0,1", "--pi", "1,0.5,0"]
SWEEP_41 = ["sweep", "--algebra", "abelian2",
            "--axis", "theta:0,1=0:2:41", "--axis", "upsilon:0,1=0:2:41"]
OUTPUTS = pytest.mark.parametrize("argv", [OMEGA, SWEEP_41], ids=["omega", "sweep"])


def fresh_output(tmp_path, argv) -> bytes:
    fresh = tmp_path / "fresh"
    assert run([*argv, "-o", fresh]) == 0
    return fresh.read_bytes()


class TestOverwrite:
    """An output is written over the old file and cut to length, never truncated to zero."""

    @OUTPUTS
    @pytest.mark.parametrize("old", [b"other text\n" * 40_000, b"x"], ids=["longer", "shorter"])
    def test_same_bytes_and_inode_over_an_old_file(self, tmp_path, argv, old):
        out = tmp_path / "out"
        out.write_bytes(old)
        inode = out.stat().st_ino
        assert run([*argv, "-o", out]) == 0
        assert out.read_bytes() == fresh_output(tmp_path, argv)
        assert out.stat().st_ino == inode

    def test_symlink_written_through_and_kept(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"other text\n" * 40_000)
        link.symlink_to(target)
        assert run([*OMEGA, "-o", link]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh_output(tmp_path, OMEGA)

    @OUTPUTS
    def test_dev_null(self, argv):
        assert run([*argv, "-o", os.devnull]) == 0

    @OUTPUTS
    def test_fifo_receives_the_whole_output(self, tmp_path, argv):
        # a stream: nothing to cut, and the sweep's 128 kB outgrow the pipe buffer
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run([*argv, "-o", fifo]) == 0
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert received == [fresh_output(tmp_path, argv)]

    @OUTPUTS
    @pytest.mark.parametrize("where, message", [
        ("", "[Errno 21] Is a directory"),
        ("missing/out", "[Errno 2] No such file or directory"),
    ], ids=["directory", "missing-parent"])
    def test_unwritable_path_exit_2(self, tmp_path, capsys, argv, where, message):
        out = tmp_path / where
        assert run([*argv, "-o", out]) == 2
        assert capsys.readouterr().err == f"error: {message}: {str(out)!r}\n"

    def test_an_error_mid_write_leaves_only_the_prefix(self, tmp_path):
        # the second block of rows fails to format after the first has been written
        out = tmp_path / "grid.csv"
        out.write_bytes(b"old tail\n" * 100_000)
        column = np.array([*range(cli._CSV_BLOCK + 10), "x"], dtype=object)
        with pytest.raises(TypeError):
            cli._write_csv(out, ["k"], [column], "%d\r\n")
        assert out.read_bytes() == b"k\r\n" + b"".join(b"%d\r\n" % k
                                                      for k in range(cli._CSV_BLOCK))

    @pytest.mark.parametrize("argv, writes", [
        (OMEGA, 1), (SWEEP_41, 2),  # 41 x 41 = 1,681 rows
        (["sweep", "--algebra", "abelian2", "--axis", "theta:0,1=0:2:0"], 1),  # the header
        (["sweep", "--algebra", "abelian2", "--axis", "theta:0,1=0:2:1024"], 1),
        (["sweep", "--algebra", "abelian2", "--axis", "theta:0,1=0:2:1025"], 2),
    ], ids=["omega", "sweep", "empty-grid", "one-block", "two-blocks"])
    def test_one_write_per_report_and_per_block_of_rows(self, monkeypatch, tmp_path, argv,
                                                        writes):
        out, calls = tmp_path / "out", []
        out.write_bytes(b"other text\n" * 40_000)
        write = os.write

        def counted(fd, data):
            calls.append(len(data))
            return write(fd, data)

        monkeypatch.setattr(os, "write", counted)
        assert run([*argv, "-o", out]) == 0
        assert len(calls) == writes and sum(calls) == out.stat().st_size

    def test_a_failed_flush_still_cuts_the_old_tail(self, tmp_path):
        # the 770-byte report is one os.write, which stops at a 300-byte file size limit; the
        # next write fails (EFBIG), and what reached the file is cut all the same
        out = tmp_path / "report.json"
        out.write_bytes(b"old tail\n" * 50_000)
        done = subprocess.run([sys.executable, "-c", FILE_SIZE_LIMIT_SCRIPT, *OMEGA, "-o", out],
                              capture_output=True, text=True, env=subprocess_env())
        assert (done.returncode, done.stderr) == (2, "error: [Errno 27] File too large\n")
        assert out.read_bytes() == fresh_output(tmp_path, OMEGA)[:300]


FILE_SIZE_LIMIT_SCRIPT = r"""
import resource, signal, sys
from liedeform.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails, not the process
resource.setrlimit(resource.RLIMIT_FSIZE, (300, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(main(sys.argv[1:]))
"""


def test_parse_axis():
    kind, indices, values = parse_axis("theta:0,1=0:2:9")
    assert kind == "theta" and indices == (0, 1)
    assert values[0] == 0.0 and values[-1] == 2.0 and len(values) == 9
    with pytest.raises(ValueError):
        parse_axis("theta:0=0:2:9")
    with pytest.raises(ValueError):
        parse_axis("xi:0,1=0:2:9")
    with pytest.raises(ValueError, match="start, stop and every point must be finite"):
        parse_axis("theta:0,1=0:inf:9")


SCIPY_FREE_SCRIPT = r"""
import sys
import numpy as np
import liedeform, liedeform.cli
from liedeform import (DeformedStructure, InertiaTensor, get_algebra, integrate,
                       so3_vector_representation)

out = sys.argv[1]
so3, sl2r = get_algebra("so3"), get_algebra("sl2r")
inertia = InertiaTensor.diagonal([1.0, 2.0, 3.0])
traj = integrate(DeformedStructure(so3), inertia, [1.0, 0.1, 0.0], T=0.1, dt=0.01,
                 rep=so3_vector_representation())
assert traj.complete and traj.gs is not None
U = np.zeros((3, 3))
U[1, 2], U[2, 1] = 0.1, -0.1
assert integrate(DeformedStructure(sl2r, None, U), inertia, [0.2, 0.1, 0.3], T=0.1,
                 dt=0.01).complete
for argv in (["validate", "--algebra", "so3", "-o", out + "/v.json"],
             ["omega", "--algebra", "so3", "--xi", "0,0,1", "--pi", "1,0,0",
              "-o", out + "/o.json"],
             ["sweep", "--algebra", "so3", "--axis", "xi:0=-1:1:3", "-o", out + "/s.csv"],
             ["simulate", "--algebra", "so3", "--inertia", "diag:1,2,3", "--pi0", "1,0.1,0",
              "--T", "0.1", "--dt", "0.01", "-o", out + "/t.csv",
              "--summary", out + "/t.json"]):
    assert liedeform.cli.main(argv) == 0, argv
# _expm gives the rotation about a unit axis (Rodrigues) without scipy too
u, t = np.array([1.0, 2.0, 2.0]) / 3.0, 0.7
K = liedeform.ad_matrix(so3, u)
rotation = np.eye(3) + np.sin(t) * K + (1.0 - np.cos(t)) * K @ K
assert np.max(np.abs(liedeform.algebra._expm(t * K) - rotation)) < 1e-14
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_scipy_stays_off_import_integrate_and_cli(tmp_path):
    # a fresh interpreter, so that no other test's import of scipy can hide one here
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=subprocess_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
