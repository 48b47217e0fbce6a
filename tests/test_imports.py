"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

import pytest

import gpquiver.cli

SOURCES = sorted(pathlib.Path(gpquiver.cli.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_sees_unused_imports():
    src = "import os\nimport a.b\nfrom x import y as z, w\nfrom __future__ import annotations\nw()\n"
    assert unused_imports(src) == [(1, "os"), (2, "a"), (3, "z")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
