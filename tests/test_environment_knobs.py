"""The library reads no environment variable: arguments and options alone set what it does.

A value read from the environment is an input that no report's ``input_hash`` records and
that ``--help`` does not list; ``--algebra <path>`` already names any spec file.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "liedeform"
#: names that read the environment, as ``os.<name>`` or imported from os
ENVIRONMENT = ("environ", "environb", "getenv", "getenvb")


def reads_environment(node) -> bool:
    """Whether the node names os.environ or os.getenv (or their bytes forms), bound or not."""
    if isinstance(node, ast.Attribute):
        return node.attr in ENVIRONMENT
    if isinstance(node, ast.Name):
        return node.id in ENVIRONMENT
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(alias.name in ENVIRONMENT for alias in node.names)
    return False


def test_no_module_reads_the_environment():
    modules = sorted(SRC.rglob("*.py"))
    os_attributes = 0
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            assert not reads_environment(node), f"{path.name}:{node.lineno} reads the environment"
            os_attributes += (isinstance(node, ast.Attribute)
                              and getattr(node.value, "id", None) == "os")
    # the check reads real code: every module, and the os calls the writer and loader make
    assert len(modules) >= 8
    assert os_attributes > 0


@pytest.mark.parametrize("source, reads", [
    ("os.environ.get('X')", True), ("os.getenv('X')", True), ("environ.get('X')", True),
    ("from os import environ", True), ("from os import getenv as g", True),
    ("os.path.exists(p)", False), ("os.open(p, flags)", False), ("from os import path", False),
])
def test_reads_environment_sees_each_spelling(source, reads):
    assert any(map(reads_environment, ast.walk(ast.parse(source)))) == reads
