import ast
import json
from pathlib import Path

import quivex
from quivex import errors, formats, hecke
from quivex.bundles import a2crystal_bundle
from quivex.cli import main

PACKAGE = Path(quivex.__file__).resolve().parent


def test_no_assert_in_package():
    # `python -O` strips assert statements; internal checks raise
    # InternalCheckError instead, so no AssertionError is left either
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_package_raises_only_quivex_errors():
    # a library caller's `except QuivexError` must catch every failure, so
    # each raise names a QuivexError subclass or re-raises the active one
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(errors, exc.id, None) if isinstance(exc, ast.Name) else None
            if not (isinstance(cls, type) and issubclass(cls, errors.QuivexError)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_imports_only_at_module_level():
    # a function-level import is how a module reaches a layer above it
    # without a cycle showing at import time; keep every import at the top
    offenders = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
                        offenders.add(f"{path.name}:{inner.lineno}")
    assert sorted(offenders) == []


def test_all_lists_exactly_the_public_imports():
    # every name in quivex.__all__ resolves, and every public name that
    # __init__ imports is listed there
    assert [name for name in quivex.__all__ if not hasattr(quivex, name)] == []
    assert len(set(quivex.__all__)) == len(quivex.__all__)
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert sorted(n for n in imported if not n.startswith("_") and n not in quivex.__all__) == []


def _scoped(node, scope):
    """Every node below node, with the dotted name of the function or class
    that encloses it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        yield inner, child
        yield from _scoped(child, inner)


def test_every_private_helper_is_used():
    # a private function, class, constant or method that nothing in the
    # package names is dead code; a deletion must take its last helper along
    defined, referenced = set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = [f for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
                defined.update(f.name for f in methods)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert len(private) > 50  # the walk found the helpers at all
    assert sorted(private - referenced) == []


def test_only_formats_reads_inputs():
    # one reader: formats.read_input reads each input once and hashes the
    # bytes it parsed, and only the CLI's _json_arg calls it, so every input
    # is recorded in the report and every decoder is a function of JSON
    readers = {"open", "json.load", "json.loads", "sys.stdin", ".read_bytes", ".read_text"}
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, node in _scoped(tree, path.stem):
            if isinstance(node, ast.ImportFrom):
                names = {f"{node.module}.{alias.name}" for alias in node.names}
                names |= {f".{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {ast.unparse(node), f".{node.attr}"}
            elif isinstance(node, ast.Name):
                names = {node.id, f".{node.id}"}
            else:
                continue
            if names & readers and scope != "formats.read_input":
                offenders.append(f"{path.name}:{node.lineno} reads in {scope}")
            if ".read_input" in names and scope != "cli._json_arg":
                offenders.append(f"{path.name}:{node.lineno} calls read_input in {scope}")
    assert offenders == []


def test_only_main_and_verify_write_the_envelope():
    # commands return their result and main writes the one envelope; verify
    # (which adds a seed) calls _emit itself, and only example --member
    # writes a bare representation to stdout
    path = PACKAGE / "cli.py"
    emits, stdout = set(), set()
    for scope, node in _scoped(ast.parse(path.read_text(), filename=str(path)), "cli"):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_emit":
            emits.add(scope)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout":
            stdout.add(scope)
    assert emits == {"cli.main", "cli._cmd_verify"}
    assert stdout == {"cli._emit", "cli.main", "cli._cmd_example"}


def test_failed_internal_check_exit_3(capsys, monkeypatch, tmp_path):
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps(formats.rep_to_json(a2crystal_bundle().reps["generic"])))
    # the flatness post-check of reduce_i now reports a non-flat reduction
    monkeypatch.setattr(hecke, "is_flat", lambda x: False)
    code = main(["reduce", "--rep", str(rep), "--vertex", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report == {
        "command": "reduce",
        "version": quivex.__version__,
        "error": {
            "type": "InternalCheckError",
            "message": "reduction of a flat representation came out non-flat",
        },
    }
