"""Byte-for-byte golden outputs of CLI runs on fixed inputs.

Each case runs ``liedeform <argv> -o <file>`` and compares the file with
``tests/golden/<case>.<ext>``; a ``simulate`` case also compares its
``--summary`` JSON with ``tests/golden/<case>.summary.json``.  Deformation
specs the cases read live in the same directory.  After a deliberate change
of output, rewrite the goldens with

    PYTHONPATH=src python tests/test_golden.py
"""
import os
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from liedeform import cli
from liedeform.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
AXIS13 = "-2:2:13"

CASES = {
    # the four sweep families of the benchmark's analysis deck, 13 x 13
    "sweep_abelian2": ["sweep", "--algebra", "abelian2",
                       "--axis", f"theta:0,1={AXIS13}", "--axis", f"upsilon:0,1={AXIS13}"],
    "sweep_abelian4": ["sweep", "--algebra", "abelian4",
                       "--axis", f"theta:1,3={AXIS13}", "--axis", f"upsilon:1,3={AXIS13}"],
    "sweep_heisenberg": ["sweep", "--algebra", "heisenberg",
                         "--axis", f"theta:0,2={AXIS13}", "--axis", f"upsilon:0,2={AXIS13}"],
    "sweep_so3": ["sweep", "--algebra", "so3", "--deformation", "so3-upsilon.json",
                  "--axis", f"xi:0={AXIS13}", "--axis", f"xi:1={AXIS13}"],
    # momentum and a coarse rank cutoff reach the stacked decision
    "sweep_sl2r_pi0_rank_tol": ["sweep", "--algebra", "sl2r", "--pi0", "0.4,-0.7,0.2",
                                "--rank-tol", "0.05", "--axis", "upsilon:0,1=-1.5:1.5:11",
                                "--axis", "xi:2=-2:2:9"],
    "sweep_zero_axes": ["sweep", "--algebra", "so3", "--xi", "0.5,0.25,-1",
                        "--pi0", "0.1,0.2,0.3"],
    "sweep_empty": ["sweep", "--algebra", "abelian2", "--axis", "theta:0,1=0:2:0",
                    "--axis", "upsilon:0,1=0:1:3"],
    # N < 2: every Poisson cell is empty
    "sweep_abelian1": ["sweep", "--algebra", "abelian1", "--pi0", "0.25",
                       "--axis", "xi:0=-1:1:5"],
    # 41 x 41 cells from 1e-300 to 1e10 in magnitude; a third of the points degenerate
    "sweep_so3_magnitudes": ["sweep", "--algebra", "so3", "--pi0", "0.1,1e10,-3",
                             "--axis", "xi:0=-1e-300:3e5:41",
                             "--axis", "upsilon:1,2=-1e-5:3e-5:41"],
    # reports on non-integer Theta (relative admission tolerance)
    "omega_so3_fractional": ["omega", "--algebra", "so3",
                             "--deformation", "so3-theta-fractional.json",
                             "--pi", "0.2,0.1,-0.4"],
    "omega_abelian2_degenerate": ["omega", "--algebra", "abelian2",
                                  "--deformation", "abelian2-degenerate.json"],
    "cohomology_heisenberg_fractional": ["cohomology", "--algebra", "heisenberg",
                                         "--deformation", "heisenberg-theta-fractional.json"],
    "validate_sl2r": ["validate", "--algebra", "sl2r"],
    "isotropy_sl2r_upsilon": ["isotropy", "--algebra", "sl2r", "--deformation", "sl2r-upsilon.json",
                              "--inertia", "diag:1,2,2"],
    # trajectories: the Casimir (the "rep" in two names is a removed simulate option, whose
    # runs wrote the same bytes); isotropy monitors with Upsilon != 0;
    # a non-exact Theta with Upsilon != 0; a degenerate abort with its partial CSV
    "simulate_so3_xi_rep": ["simulate", "--algebra", "so3", "--xi", "0.1,-0.2,0.3",
                            "--inertia", "diag:1,0.5,0.25", "--pi0", "1,0.1,-0.3",
                            "--T", "1", "--dt", "0.025"],
    "simulate_so3_rep_isotropy": ["simulate", "--algebra", "so3", "--xi", "0,0,0.5",
                                  "--inertia", "diag:1,1,0.5", "--pi0", "1,0.1,-0.3",
                                  "--T", "3", "--dt", "0.01"],
    "simulate_sl2r_upsilon": ["simulate", "--algebra", "sl2r", "--deformation", "sl2r-upsilon.json",
                              "--inertia", "diag:1,2,2", "--pi0", "0.3,-0.5,0.8",
                              "--T", "2", "--dt", "0.05"],
    "simulate_heisenberg_fractional": ["simulate", "--algebra", "heisenberg",
                                       "--deformation", "heisenberg-theta-fractional.json",
                                       "--inertia", "diag:1,0.5,2", "--pi0", "0.3,-0.5,0.8",
                                       "--T", "2", "--dt", "0.05"],
    "simulate_abelian2_degenerate": ["simulate", "--algebra", "abelian2",
                                     "--deformation", "abelian2-degenerate.json",
                                     "--inertia", "identity", "--pi0", "1,0", "--T", "1",
                                     "--dt", "0.1"],
}
EXIT = {"simulate_abelian2_degenerate": 3}


def golden_paths(case):
    """Golden files of a case: its -o output, then a simulate case's --summary."""
    command = CASES[case][0]
    paths = [os.path.join(GOLDEN, f"{case}.{'csv' if command in ('sweep', 'simulate') else 'json'}")]
    if command == "simulate":
        paths.append(os.path.join(GOLDEN, f"{case}.summary.json"))
    return paths


def run_case(case, outputs):
    argv = [os.path.join(GOLDEN, a) if a.endswith(".json") else a for a in CASES[case]]
    argv += ["-o", str(outputs[0])]
    if len(outputs) > 1:
        argv += ["--summary", str(outputs[1])]
    return main(argv)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_byte_identical(case, tmp_path):
    goldens = golden_paths(case)
    outputs = [tmp_path / os.path.basename(path) for path in goldens]
    assert run_case(case, outputs) == EXIT.get(case, 0)
    for out, path in zip(outputs, goldens):
        with open(path, "rb") as fh:
            expected = fh.read()
        assert out.read_bytes() == expected, os.path.basename(path)


@pytest.mark.parametrize("case", ["sweep_so3_magnitudes", "simulate_so3_rep_isotropy"])
def test_blocks_join_byte_identically(case, tmp_path, monkeypatch):
    # 7 divides neither 1,681 nor 301 rows: many full blocks, then a short one
    monkeypatch.setattr(cli, "_CSV_BLOCK", 7)
    goldens = golden_paths(case)
    outputs = [tmp_path / os.path.basename(path) for path in goldens]
    assert run_case(case, outputs) == 0
    with open(goldens[0], "rb") as fh:
        assert outputs[0].read_bytes() == fh.read()


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)  # smallest subnormal
@example(-2.225073858507201e-308)  # largest subnormal
@example(1.7976931348623157e308)
def test_printf_17g_equals_format_spec(x):
    # CSV rows are formatted with "%", cells used to be f-strings: every finite double agrees
    assert "%.17g" % x == f"{x:.17g}"


if __name__ == "__main__":
    for name in sorted(CASES):
        paths = golden_paths(name)
        if run_case(name, paths) != EXIT.get(name, 0):
            sys.exit(f"case {name} failed")
        print("wrote", *paths)
