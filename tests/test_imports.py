"""Every name a module of the package imports is used in that module, and
every function or class the package defines is referenced somewhere in the
sources, the tests or the benchmark harness."""

import ast
import pathlib

import pytest

import gpquiver.cli

SOURCES = sorted(pathlib.Path(gpquiver.cli.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(gpquiver.cli.__file__).parents[2]
REFERRERS = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


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


def unreferenced_definitions(defining: dict, referring: list) -> list:
    """(file, line, name) of each function or class defined in the sources
    of `defining` (name -> text) whose name no text in `referring` uses: as
    a name, an attribute, an imported name, or a dotted word of a string
    constant (the tracer patches functions by their dotted paths).  Dunder
    methods are called by the language and are left out."""
    used = set()
    for source in referring:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(node.value.split("."))
    out = []
    for name, source in defining.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and node.name not in used:
                    out.append((name, node.lineno, node.name))
    return out


def test_checker_sees_unreferenced_definitions():
    lib = ("class Used:\n    def method(self):\n        pass\n"
           "    def __eq__(self, other):\n        pass\n"
           "def traced():\n    pass\n"
           "def dead():\n    def inner():\n        pass\n")
    user = "from lib import Used\nUsed().method()\nTARGETS = {'x': ('lib', 'traced')}\n"
    assert unreferenced_definitions({"lib.py": lib}, [lib, user]) == [
        ("lib.py", 8, "dead"), ("lib.py", 9, "inner")]


def test_every_definition_is_referenced():
    texts = {p: p.read_text(encoding="utf-8") for p in REFERRERS}
    defining = {p.name: texts[p] for p in SOURCES}
    assert unreferenced_definitions(defining, list(texts.values())) == []
