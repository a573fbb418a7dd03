"""Cocycle admission has one owner: ``cohomology``.

The admission residual (``_delta2``), its tolerance (``admission_tol``) and the rule that
compares them (``_admit``) are called only from cohomology.py, and ``_admit`` also from
phase_space.py, which imports neither of the other two.  A second copy of the rule could
drift from the first: a ``>`` where ``_admit`` has ``not <=`` lets a NaN residual through.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: function -> the files under src/ that may call it
CALLERS = {
    "admission_tol": {"liedeform/cohomology.py"},
    "_delta2": {"liedeform/cohomology.py"},
    "_admit": {"liedeform/cohomology.py", "liedeform/phase_space.py"},
}


def parsed_sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(), filename=str(path))


def called_name(call: ast.Call):
    """f of ``f(...)`` or ``module.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_admission_is_called_only_from_its_owner():
    seen = set()
    for name, tree in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and called_name(node) in CALLERS:
                seen.add(called_name(node))
                assert name in CALLERS[called_name(node)], \
                    f"{name}:{node.lineno} calls {called_name(node)}"
    assert seen == set(CALLERS)  # the check reads the calls it is about


def test_phase_space_imports_only_the_rule():
    tree = dict(parsed_sources())["liedeform/phase_space.py"]
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "_admit" in imported
    assert not imported & {"admission_tol", "_delta2"}
