"""Theta's primitive has one owner per structure: ``DeformedStructure._xi``.

``cohomology._primitive`` is called only by ``solve_primitive`` (a free Theta) and
``DeformedStructure._xi`` (solved on first read, then kept).  cli.py and dynamics.py read
``_xi``; a second solve there could drift from the first, and was solved again on every call.
"""
import ast

import numpy as np
import pytest

from liedeform import phase_space
from liedeform.algebra import so3
from liedeform.cli import main
from liedeform.cohomology import delta1_scalar
from liedeform.dynamics import InertiaTensor, integrate
from liedeform.phase_space import DeformedStructure

from test_admission_owner import called_name, parsed_sources

UPSILON = [[0.0, 0.3, -0.2], [-0.3, 0.0, 0.7], [0.2, -0.7, 0.0]]


@pytest.fixture()
def solves(monkeypatch):
    """The calls of phase_space._primitive, the binding _xi solves by."""
    calls = []
    primitive = phase_space._primitive

    def counted(*args, **kwargs):
        calls.append(1)
        return primitive(*args, **kwargs)

    monkeypatch.setattr(phase_space, "_primitive", counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["cohomology", "--algebra", "so3", "--xi", "0,0,1"],
    ["omega", "--algebra", "so3", "--xi", "0,0,1", "--pi", "1,0,0"],
    ["omega", "--algebra", "so3", "--deformation", "{upsilon}"],
])
def test_one_solve_per_report(solves, tmp_path, argv):
    path = tmp_path / "upsilon.json"
    path.write_text('{"Theta": null, "xi": [0, 0, 1], "Upsilon": %s}' % UPSILON)
    argv = [arg.format(upsilon=path) for arg in argv]
    assert main(argv + ["-o", str(tmp_path / "report.json")]) == 0
    assert len(solves) == 1


def test_one_solve_per_structure_across_integrate_calls(solves, rng):
    algebra = so3()
    structure = DeformedStructure(algebra, delta1_scalar(algebra, [0.5, -1.0, 2.0]))
    assert not solves and "_xi" not in vars(structure)  # nothing solved at construction
    for pi0 in rng.normal(size=(5, 3)):
        traj = integrate(structure, InertiaTensor.identity(3), pi0, T=0.1, dt=0.05)
        assert "casimir" in traj.monitors
    assert len(solves) == 1
    assert not structure._xi.flags.writeable


def test_no_solve_with_upsilon(solves):
    algebra = so3()
    structure = DeformedStructure(algebra, delta1_scalar(algebra, [0.5, -1.0, 2.0]), UPSILON)
    traj = integrate(structure, InertiaTensor.identity(3), [1.0, 0.1, 0.2], T=0.1, dt=0.05)
    assert "casimir" not in traj.monitors
    assert not solves


def enclosing_calls(tree, name):
    """The qualified names of the functions in ``tree`` that call ``name``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and called_name(child) == name:
                found.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_primitive_is_called_only_by_its_owners():
    callers = {(path, scope) for path, tree in parsed_sources()
               for scope in enclosing_calls(tree, "_primitive")}
    assert callers == {("liedeform/cohomology.py", "solve_primitive"),
                       ("liedeform/phase_space.py", "DeformedStructure._xi")}


def test_cli_and_dynamics_read_the_kept_primitive():
    trees = dict(parsed_sources())
    for path in ("liedeform/cli.py", "liedeform/dynamics.py"):
        names = {alias.name for node in ast.walk(trees[path])
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        names |= {node.id for node in ast.walk(trees[path]) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(trees[path]) if isinstance(node, ast.Attribute)}
        assert "_primitive" not in names and "solve_primitive" not in names, path
        assert "_xi" in names, path
