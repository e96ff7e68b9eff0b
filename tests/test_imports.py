"""Every name a library module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

import vdiam

# __init__ imports names to re-export them, not to read them
MODULES = sorted(p for p in Path(vdiam.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree):
    """Every name an expression reads, in string annotations too."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in read]
    assert not unused, f"{path.name} imports names it never reads: {', '.join(unused)}"
