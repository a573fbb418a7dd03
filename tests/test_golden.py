"""Byte-for-byte golden outputs of CLI runs on fixed inputs.

Each case runs ``liedeform <argv> -o <file>`` and compares the file with
``tests/golden/<case>.<ext>``.  Deformation specs the cases read live in the
same directory.  After a deliberate change of output, rewrite the goldens with

    PYTHONPATH=src python tests/test_golden.py
"""
import os
import sys

import pytest

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
    # reports on non-integer Theta (relative admission tolerance)
    "omega_so3_fractional": ["omega", "--algebra", "so3",
                             "--deformation", "so3-theta-fractional.json",
                             "--pi", "0.2,0.1,-0.4"],
    "omega_abelian2_degenerate": ["omega", "--algebra", "abelian2",
                                  "--deformation", "abelian2-degenerate.json"],
    "cohomology_heisenberg_fractional": ["cohomology", "--algebra", "heisenberg",
                                         "--deformation", "heisenberg-theta-fractional.json"],
}


def golden_path(case):
    ext = "csv" if CASES[case][0] == "sweep" else "json"
    return os.path.join(GOLDEN, f"{case}.{ext}")


def run_case(case, output):
    argv = [os.path.join(GOLDEN, a) if a.endswith(".json") else a for a in CASES[case]]
    return main(argv + ["-o", str(output)])


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_byte_identical(case, tmp_path):
    out = tmp_path / "out"
    assert run_case(case, out) == 0
    with open(golden_path(case), "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected


if __name__ == "__main__":
    for name in sorted(CASES):
        if run_case(name, golden_path(name)) != 0:
            sys.exit(f"case {name} failed")
        print("wrote", golden_path(name))
