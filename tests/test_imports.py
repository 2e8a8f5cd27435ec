"""Every module of the package reads each name it imports."""

import ast
from pathlib import Path

import pytest

import distmeas

MODULES = sorted(p for p in Path(distmeas.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def imported_names(tree):
    """(name bound by an import, line) for every import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in read]
    assert unused == [], f"{path.name} imports names it never reads"
