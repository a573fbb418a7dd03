"""Every name a module of the package imports is used in that module.

An AST check, as pyflakes is not a dependency.  Exempt are the imports of ``__init__``, which
are the package's exports, and an import statement marked ``# noqa: F401`` on one of its lines,
which names a re-export.  A name counts as used where the module reads it: alone, as in
``_admit(...)``, or as the base of an attribute, as in ``np.linalg``.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liedeform"


def unused_imports(source: str):
    """(line, name) of each imported name that the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                yield node.lineno, name


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_every_import_is_used(path):
    assert list(unused_imports((PACKAGE / path).read_text())) == []


def test_exports_are_public():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names and not [name for name in names if name.startswith("_")]


def test_the_check_finds_an_orphaned_import():
    source = ("import numpy as np\n"
              "from .errors import InvalidValue, LieDeformError\n"
              "from .algebra import (_CERTIFIED_SQ,  # noqa: F401 re-export\n"
              "                      get_algebra)\n"
              "def f(x):\n"
              "    raise InvalidValue(np.linalg.norm(x))\n")
    assert list(unused_imports(source)) == [(2, "LieDeformError")]
