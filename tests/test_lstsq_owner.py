"""Least squares has one call: ``np.linalg.lstsq`` in ``cohomology._primitive``.

``_primitive`` solves for Theta's primitive on the algebra's cached coboundary matrix with
NumPy's public wrapper at its default rcond, and nothing binds a least-squares routine to a
name of its own.  A second call could drift from the first in rcond or in how it treats an
algebra without pairs, and a binding of LAPACK's gufunc would rest on a private NumPy name.
"""
import ast

import pytest

from test_admission_owner import parsed_sources

OWNER = ("liedeform/cohomology.py", "_primitive")


def names_lstsq(node) -> bool:
    """Whether the node names a least-squares routine: a name, an attribute or an import."""
    if isinstance(node, ast.Name):
        return "lstsq" in node.id
    if isinstance(node, ast.Attribute):
        return "lstsq" in node.attr
    if isinstance(node, ast.alias):
        return "lstsq" in node.name or "lstsq" in (node.asname or "")
    return False


def references():
    """(file, top-level statement, its name or None, node) of every node naming lstsq."""
    for name, tree in parsed_sources():
        for top in tree.body:
            owner = getattr(top, "name", None)
            if isinstance(top, ast.Assign) and len(top.targets) == 1:
                owner = getattr(top.targets[0], "id", None)
            for node in ast.walk(top):
                if names_lstsq(node):
                    yield name, top, owner, node


def test_least_squares_is_called_only_by_primitive():
    calls = []
    for name, top, owner, node in references():
        assert (name, owner) == OWNER, f"{name}:{node.lineno} names {ast.unparse(node)}"
        calls += [n for n in ast.walk(top) if isinstance(n, ast.Call) and n.func is node]
    # the check reads what it is about: every reference is the one call, by the public wrapper
    assert [ast.unparse(call.func) for call in calls] == ["np.linalg.lstsq"]
    assert [ast.unparse(kw) for kw in calls[0].keywords] == ["rcond=None"]
    assert len(list(references())) == 1


@pytest.mark.parametrize("source, expected", [
    ("np.linalg.lstsq(A, b)", True), ("lstsq(A, b)", True), ("_lstsq(A, b, r)", True),
    ("np.linalg._umath_linalg.lstsq", True), ("scipy.linalg.lstsq(A, b)", True),
    ("np.linalg.solve(A, b)", False), ("np.linalg.pinv(A)", False),
])
def test_names_lstsq_reads_names_and_attributes(source, expected):
    node = ast.parse(source, mode="eval").body
    assert names_lstsq(node.func if isinstance(node, ast.Call) else node) == expected


@pytest.mark.parametrize("source", ["from numpy.linalg import lstsq",
                                    "from numpy.linalg import lstsq as solve_ls",
                                    "from scipy.linalg import lstsq"])
def test_names_lstsq_reads_imports(source):
    assert any(names_lstsq(node) for node in ast.walk(ast.parse(source)))
