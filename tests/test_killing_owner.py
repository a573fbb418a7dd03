"""The semisimplicity verdict and the inverse Killing form have one owner: ``algebra``.

``LieAlgebra._killing_inv`` decides Cartan's criterion from the singular values of the Killing
form and inverts it, once per algebra; ``is_semisimple`` and ``dynamics._casimir_monitor`` read
it.  ``killing_form`` is called only there, and so are algebra.py's one ``np.linalg.svd`` and
one ``np.linalg.inv``.  A second copy could decide or invert differently from the first, and
would pay again for each call.
"""
import ast

from test_admission_owner import called_name, parsed_sources

#: function -> the (file under src/, enclosing function) pairs that may call it
OWNER = {("liedeform/algebra.py", "_killing_inv")}
CALLERS = {"killing_form": OWNER}


def calls_by_function():
    """(file, enclosing function, called name, line) of every call under src/."""
    for name, tree in parsed_sources():
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                for node in ast.walk(function):
                    if isinstance(node, ast.Call):
                        yield name, function.name, called_name(node), node.lineno


def test_killing_form_is_called_only_by_the_owner():
    seen = set()
    for name, function, called, line in calls_by_function():
        if called in CALLERS:
            seen.add(called)
            assert (name, function) in CALLERS[called], f"{name}:{line} calls {called}"
    assert seen == set(CALLERS)  # the check reads the calls it is about


def test_algebra_inverts_only_the_killing_form():
    for decomposition in ("inv", "svd"):  # the inverse, and the singular values of the verdict
        calls = {(function, line) for name, function, called, line in calls_by_function()
                 if called == decomposition and name == "liedeform/algebra.py"}
        assert {function for function, _ in calls} == {"_killing_inv"}, decomposition
        assert len(calls) == 1, decomposition


def test_readers_do_not_recompute():
    sources = dict(parsed_sources())
    for name, function in (("liedeform/algebra.py", "is_semisimple"),
                           ("liedeform/dynamics.py", "_casimir_monitor")):
        node = next(n for n in ast.walk(sources[name])
                    if isinstance(n, ast.FunctionDef) and n.name == function)
        attributes = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        calls = {called_name(n) for n in ast.walk(node) if isinstance(n, ast.Call)}
        assert "_killing_inv" in attributes or "is_semisimple" in calls, function
        assert not calls & {"killing_form", "svd", "det", "inv"}, function
