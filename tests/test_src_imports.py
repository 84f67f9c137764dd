"""Every name a package module imports is used there, and every parameter
of its functions is read.

A stdlib stand-in for a linter's unused-import rule (F401): it parses each
module of ``src/uprop`` (the package ``__init__``, which only re-exports,
aside) and lists the imported names that the module never reads. An
import kept on purpose, such as a re-export or a binding a tool patches,
carries ``# noqa: F401`` on one of its lines. The same parse lists the
parameters of every ``def`` (``self`` and ``cls`` aside) that its body
never reads: a parameter left over from an older signature. Last, it
lists every default of a private (``_``-prefixed) function that every
call in the package passes anyway: a default no caller needs. Calls are
matched to a ``def`` by name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "uprop"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def unread_parameters(path: Path) -> list:
    unread = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"line {node.lineno}: {node.name}({name})" for name in params
                   if name not in read and name not in ("self", "cls")]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path) == []


def passes(call: ast.Call, name: str, positional: list) -> bool:
    """Whether ``call`` passes the parameter ``name``: by position, by
    keyword, or perhaps through ``*args`` or ``**kwargs``."""
    if name in positional and len(call.args) > positional.index(name):
        return True
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args))


def defaults_every_call_passes() -> list:
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    nodes = [n for tree in trees for n in ast.walk(tree)]
    calls = {}
    for call in (n for n in nodes if isinstance(n, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        calls.setdefault(name, []).append(call)
    listed = []
    for node in nodes:
        if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_") and not node.name.startswith("__")
                and node.name in calls):
            continue
        args = node.args
        positional = [a.arg for a in (*args.posonlyargs, *args.args)]
        if positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        listed += [f"line {node.lineno}: {node.name}({name})" for name in defaulted
                   if all(passes(call, name, positional) for call in calls[node.name])]
    return listed


def test_no_private_default_is_passed_by_every_call():
    assert defaults_every_call_passes() == []
