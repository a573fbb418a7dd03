"""Each command's inputs have one owner: ``cli.main``.

``main`` resolves the algebra (a spec file or a registry name), then the structure, the
inertia and the momentum, in the order every subcommand reports a bad one, and hands them to
``cmd_*``, which only compute and report.  A ``cmd_*`` that resolved an input itself could
report a bad one in another order, or parse the same option a second way.
"""
import ast

import pytest

from test_admission_owner import parsed_sources

MAIN = ("liedeform/cli.py", "main")


def scopes_naming(tree, name):
    """The qualified names of the functions in ``tree`` that name ``name`` ("" at top level)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name):
                found.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def readers(name, path=None):
    """(file, function) of every reference to ``name`` under src/, or in the one file ``path``."""
    return {(file, scope) for file, tree in parsed_sources() if path in (None, file)
            for scope in scopes_naming(tree, name)}


@pytest.mark.parametrize("name", ["resolve_structure", "resolve_inertia"])
def test_structure_and_inertia_are_resolved_only_in_main(name):
    assert readers(name) == {MAIN}


def test_the_algebra_is_chosen_only_in_main():
    # a registry name or a spec file: main's choice between the two, and nothing else in cli.py
    chosen = [readers(name, MAIN[0]) for name in ("get_algebra", "load_algebra", "_read_algebra")]
    assert chosen == [{MAIN}, set(), {MAIN}]


def test_no_command_parses_a_vector():
    tree = dict(parsed_sources())[MAIN[0]]
    commands = {node.name for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")}
    assert len(commands) == 6  # the check reads the functions it is about
    parsers = scopes_naming(tree, "parse_vector")
    assert parsers == {"main", "resolve_structure", "resolve_inertia"}
    assert not parsers & commands


@pytest.mark.parametrize("source, expected", [
    ("def main(args):\n    resolve_structure(args, a)", {"main"}),
    ("def cmd_x(args):\n    return cli.resolve_structure(args, a)", {"cmd_x"}),
    ("def cmd_x(args):\n    resolve = resolve_structure", {"cmd_x"}),
    ("def cmd_x(args):\n    def inner():\n        resolve_structure(args, a)", {"cmd_x.inner"}),
    ("class C:\n    def m(self):\n        return [resolve_structure(a, b) for a in x]", {"C.m"}),
    ("resolve_structure(a, b)", {""}),
    ("def resolve_structure(args, algebra):\n    return args", set()),
    ("def cmd_x(args):\n    resolve_inertia(args.inertia, 3)", set()),
])
def test_scopes_naming_reads_calls_references_and_nesting(source, expected):
    assert scopes_naming(ast.parse(source), "resolve_structure") == expected
