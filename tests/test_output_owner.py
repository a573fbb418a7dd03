"""CLI output has one writer: ``cli._overwrite``.

Every report and CSV goes through it: written from offset 0 over the old file, then cut to
length where the old file was longer.  A second ``open(path, "w")`` would truncate the file to
zero first, which on ext4 costs several times the write, and would not share the writer's
handling of FIFOs and devices or of an error partway through.

Report text has one encoder too, ``cli._json_text``: ``json.dump``/``json.dumps`` given an
``indent`` always run json's pure-Python encoder, the largest fixed cost of a report.
"""
import ast

import pytest

from test_admission_owner import called_name, parsed_sources

WRITER = ("liedeform/cli.py", "_overwrite")
#: modules whose open/fdopen take the path or descriptor first and the mode second
MODULES = ("os", "io", "builtins", "codecs")


def writes(node) -> bool:
    """Whether the node opens a file for writing, or may: a mode or flags not written out."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return (node.id if isinstance(node, ast.Name) else node.attr) == "O_TRUNC"
    if not isinstance(node, ast.Call):
        return False
    if called_name(node) in ("write_text", "write_bytes"):
        return True
    if called_name(node) not in ("open", "fdopen"):
        return False
    # open(file, mode), os.open(path, flags), io.open and os.fdopen(fd, mode); but a method such
    # as Path.open(mode) takes the mode first
    receiver = getattr(node.func, "value", None)
    first = isinstance(node.func, ast.Attribute) and getattr(receiver, "id", None) not in MODULES
    mode = node.args[0 if first else 1] if len(node.args) > (0 if first else 1) else next(
        (kw.value for kw in node.keywords if kw.arg in ("mode", "flags")), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_files_are_written_only_by_the_writer():
    in_writer = []
    for name, tree in parsed_sources():
        writer = {id(node) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and (name, func.name) == WRITER
                  for node in ast.walk(func)}
        for node in ast.walk(tree):
            if writes(node):
                assert id(node) in writer, f"{name}:{node.lineno} writes a file"
                in_writer.append(node)
    # the writer's one os.open: the check reads the call it is about
    assert len(in_writer) == 1


@pytest.mark.parametrize("source, opens_for_writing", [
    ('open(p, "w")', True), ('open(p)', False), ('io.open(p, "rb")', False),
    ('os.fdopen(fd, "a")', True), ('os.fdopen(fd)', False), ('os.open(p, flags)', True),
    ('Path(p).open("w")', True), ('p.open(mode="x")', True), ('p.open()', False),
    ('p.open("r")', False), ('p.open(mode)', True), ('p.write_bytes(b)', True),
])
def test_writes_reads_the_mode_where_each_call_takes_it(source, opens_for_writing):
    assert writes(ast.parse(source, mode="eval").body) == opens_for_writing


def indented_json(node) -> bool:
    """Whether the node is a json.dump or json.dumps call given an indent other than None."""
    return isinstance(node, ast.Call) and called_name(node) in ("dump", "dumps") and any(
        kw.arg == "indent" and not (isinstance(kw.value, ast.Constant) and kw.value.value is None)
        for kw in node.keywords)


def test_no_indented_json_encoder_in_src():
    assert [f"{name}:{node.lineno}" for name, tree in parsed_sources() for node in ast.walk(tree)
            if indented_json(node)] == []


@pytest.mark.parametrize("source, indented", [
    ('json.dumps(x, indent=2, sort_keys=True)', True), ('json.dump(x, fh, indent=1)', True),
    ('dumps(x, indent=width)', True), ('json.dumps(x, sort_keys=True)', False),
    ('json.dumps(x, indent=None)', False), ('json.loads(s)', False),
])
def test_indented_json_reads_the_indent_keyword(source, indented):
    assert indented_json(ast.parse(source, mode="eval").body) == indented
