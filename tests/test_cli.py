import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import liedeform
from liedeform.algebra import so3
from liedeform import cli
from liedeform.cli import main, parse_axis


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

    def test_registry_env_override(self, so3_file, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("LIEDEFORM_REGISTRY", str(so3_file.parent))
        # resolved as <dir>/so3.json rather than the builtin
        assert run(["validate", "--algebra", "so3"]) == 0


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

    def test_group_reconstruction(self, tmp_path):
        traj = tmp_path / "traj.csv"
        summary = tmp_path / "summary.json"
        assert run(["simulate", "--algebra", "so3", "--inertia", "identity",
                    "--pi0", "0,0,1", "--T", 1.0, "--dt", 0.01,
                    "--rep", "so3", "--output", traj, "--summary", summary]) == 0

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
        monkeypatch.setattr(cli, "cmd_validate", lambda args: 7)
        assert run(["validate", "--algebra", "so3"]) == 7


class TestReportRoundTrip:
    def test_json_reparses_with_declared_dim(self, tmp_path):
        out = tmp_path / "report.json"
        run(["omega", "--algebra", "so3", "--xi", "0,0,1", "--pi", "1,0,0",
             "-o", out])
        report = read_json(out)
        assert np.array(report["poisson"]).shape == (6, 6)
        assert len(report["darboux_xi"]) == 3


def test_parse_axis():
    kind, indices, values = parse_axis("theta:0,1=0:2:9")
    assert kind == "theta" and indices == (0, 1)
    assert values[0] == 0.0 and values[-1] == 2.0 and len(values) == 9
    with pytest.raises(ValueError):
        parse_axis("theta:0=0:2:9")
    with pytest.raises(ValueError):
        parse_axis("xi:0,1=0:2:9")


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
              "--T", "0.1", "--dt", "0.01", "--rep", "so3", "-o", out + "/t.csv",
              "--summary", out + "/t.json"]):
    assert liedeform.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
# ad_exp imports expm on use and still gives the rotation about a unit axis (Rodrigues)
u, t = np.array([1.0, 2.0, 2.0]) / 3.0, 0.7
K = liedeform.ad_matrix(so3, u)
rotation = np.eye(3) + np.sin(t) * K + (1.0 - np.cos(t)) * K @ K
assert np.max(np.abs(liedeform.ad_exp(so3, u, t) - rotation)) < 1e-14
"""


def test_scipy_stays_off_import_integrate_and_cli(tmp_path):
    # a fresh interpreter, so that no other test's import of scipy can hide one here
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=subprocess_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
