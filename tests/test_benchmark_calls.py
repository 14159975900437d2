"""The benchmark under ``perfbench/`` reaches quivex by name: ``qx.<name>``
on the imported package, and ``acceptance.criterion_N`` in its verify
workload.  Each such name must resolve, and each call it makes must bind to
the signature, so that dropping or renaming something the benchmark uses
fails here rather than in a benchmark run.  The benchmark files are only
read."""

import ast
import inspect
from pathlib import Path

import quivex
import quivex.acceptance
import quivex.cli
import quivex.formats

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the root names a benchmark file uses for quivex objects, per file
ROOTS = {"qx": quivex}
FILE_ROOTS = {"verify.py": {"acceptance": quivex.acceptance}}


def _chain(node: ast.AST) -> list[str] | None:
    """["qx", "a", "b"] for the expression qx.a.b, None for anything else."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(names)]


def _resolve(chain: list[str], roots: dict):
    obj = roots[chain[0]]
    for name in chain[1:]:
        obj = getattr(obj, name)
    return obj


def _outermost_chains(tree: ast.AST, roots: dict) -> list[ast.Attribute]:
    """Every attribute chain rooted at one of ``roots``, the longest only."""
    inner = set()
    chains = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = _chain(node)
            if chain is not None and chain[0] in roots:
                chains.append(node)
                value = node.value
                while isinstance(value, ast.Attribute):
                    inner.add(id(value))
                    value = value.value
    return chains


def _bind(obj, positional: int, keywords: list[str]) -> None:
    inspect.signature(obj).bind(*[None] * positional, **dict.fromkeys(keywords))


def _calls(tree: ast.AST, roots: dict):
    """(chain, positional count, keyword names) of each direct call of a
    rooted chain, and of each ``(number, criterion, (args...))`` entry."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            chain = _chain(node.func)
            if chain is None or chain[0] not in roots:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                raise AssertionError(f"line {node.lineno}: unpacked arguments cannot be bound")
            yield chain, len(node.args), [k.arg for k in node.keywords], node.lineno
        elif isinstance(node, ast.Tuple) and len(node.elts) == 3 and isinstance(node.elts[2], ast.Tuple):
            chain = _chain(node.elts[1])
            if chain is not None and chain[0] in roots:
                yield chain, len(node.elts[2].elts), [], node.lineno


def _scan():
    names, calls, problems = set(), 0, []
    for path in sorted(PERFBENCH.glob("*.py")):
        roots = {**ROOTS, **FILE_ROOTS.get(path.name, {})}
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _outermost_chains(tree, roots):
            chain = _chain(node)
            try:
                _resolve(chain, roots)
            except AttributeError as exc:
                problems.append(f"{path.name}:{node.lineno}: {'.'.join(chain)}: {exc}")
            else:
                names.add(".".join(chain))
        for chain, positional, keywords, line in _calls(tree, roots):
            try:
                _bind(_resolve(chain, roots), positional, keywords)
            except AttributeError:
                continue  # reported as an unresolved name above
            except TypeError as exc:
                problems.append(f"{path.name}:{line}: {'.'.join(chain)}: {exc}")
            else:
                calls += 1
    return names, calls, problems


def test_benchmark_names_resolve_and_calls_bind():
    names, calls, problems = _scan()
    assert problems == []
    assert {"qx.cb_transform", "qx.cb_extend_dim", "acceptance.criterion_7"} <= names
    assert calls > 0


def test_guard_flags_a_removed_parameter(monkeypatch):
    # cb_transform(q, w) loses w: both benchmark call sites stop binding
    monkeypatch.setattr(quivex, "cb_transform", lambda q: None)
    _, _, problems = _scan()
    assert [p.split(": ")[1] for p in problems] == ["qx.cb_transform"] * 2

