"""The package names one private NumPy attribute: ``dynamics._solve``'s LAPACK gufunc.

``_solve = np.linalg._umath_linalg.solve1`` is bound once, at module level, because it is
measured: it is a third of an Upsilon != 0 step.  Every other linear-algebra call goes through
NumPy's public API.  A private name may move in any NumPy release, and a module that names
one at import time then fails ``import liedeform``; one binding keeps that risk in one line.
"""
import ast

import pytest

from test_admission_owner import parsed_sources

#: the one private name: (file under src/, the module-level statement that binds it)
BINDING = ("liedeform/dynamics.py", "_solve = np.linalg._umath_linalg.solve1")
NUMPY = ("np", "numpy")


def chain(node):
    """The dotted segments of a Name/Attribute chain, root first, or None for another node."""
    segments = []
    while isinstance(node, ast.Attribute):
        segments.append(node.attr)
        node = node.value
    return [node.id, *segments[::-1]] if isinstance(node, ast.Name) else None


def names_private_numpy(node) -> bool:
    """Whether the node names a private NumPy attribute: an attribute, getattr or import."""
    if isinstance(node, ast.Attribute):  # the outermost private segment of np.a._b.c is _b
        segments = chain(node)
        return bool(segments) and segments[0] in NUMPY and node.attr.startswith("_")
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
        target = chain(node.args[0]) if node.args else None
        attr = node.args[1] if len(node.args) > 1 else None
        return (bool(target) and target[0] in NUMPY and isinstance(attr, ast.Constant)
                and isinstance(attr.value, str) and attr.value.startswith("_"))
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module:
        modules = [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        return False
    return any(module.split(".")[0] == "numpy"
               and any(part.startswith("_") for part in module.split(".")[1:])
               for module in modules)


def test_only_the_solve_binding_names_a_private_numpy_attribute():
    found = []
    for name, tree in parsed_sources():
        for top in tree.body:
            for node in ast.walk(top):
                if names_private_numpy(node):
                    found.append((name, top))
                    assert (name, ast.unparse(top)) == BINDING, \
                        f"{name}:{node.lineno} names {ast.unparse(node)}"
    # the check reads what it is about: one node, in the module-level assignment
    assert len(found) == 1 and isinstance(found[0][1], ast.Assign)


@pytest.mark.parametrize("source, expected", [
    ("np.linalg._umath_linalg.solve1", True), ("numpy.linalg._linalg.lstsq", True),
    ("np._core.multiarray", True), ("np.linalg.solve", False), ("np.linalg.lstsq", False),
    ("self._solve", False), ("_solve(K, b)", False), ("rng._bit_generator", False),
    ('getattr(np.linalg, "_umath_linalg")', True), ('getattr(np.linalg, "solve")', False),
])
def test_names_private_numpy_reads_attribute_chains(source, expected):
    tree = ast.parse(source, mode="eval")
    assert any(names_private_numpy(node) for node in ast.walk(tree)) == expected


@pytest.mark.parametrize("source, expected", [
    ("import numpy.linalg._umath_linalg", True), ("from numpy.linalg import _umath_linalg", True),
    ("from numpy._core import multiarray", True), ("import numpy as np", False),
    ("from numpy.linalg import solve", False), ("from ._private import x", False),
])
def test_names_private_numpy_reads_imports(source, expected):
    assert any(names_private_numpy(node) for node in ast.walk(ast.parse(source))) == expected
