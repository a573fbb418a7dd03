"""Least squares has one caller: ``cohomology._primitive``.

``_primitive`` solves for Theta's primitive on the algebra's cached coboundary matrix with
LAPACK's ``lstsq`` gufunc, called as ``np.linalg.lstsq`` calls it: the same rcond, the same
zeroing at m = 0 pairs and the same error state.  A second least-squares call, NumPy's wrapper
or the gufunc, could drift from the first on any of those, and would pay the wrapper again.
"""
import ast

import pytest

from test_admission_owner import parsed_sources

OWNER = ("liedeform/cohomology.py", "_primitive")
#: the one binding of the gufunc, a module-level assignment in cohomology.py
BINDING = ("liedeform/cohomology.py", "_lstsq")


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
    calls, bindings = [], []
    for name, top, owner, node in references():
        if (name, owner) == OWNER:
            calls += [n for n in ast.walk(top) if isinstance(n, ast.Call) and n.func is node]
        else:
            assert (name, owner) == BINDING and isinstance(top, ast.Assign), \
                f"{name}:{node.lineno} names {ast.unparse(node)}"
            bindings.append(top)
    # the check reads what it is about: one binding statement, and _primitive calls it
    assert len({id(top) for top in bindings}) == 1
    assert ast.unparse(bindings[0]) == "_lstsq = np.linalg._umath_linalg.lstsq"
    assert [ast.unparse(call.func) for call in calls] == [BINDING[1]]


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
