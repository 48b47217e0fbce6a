"""Every name a module of the package imports is used in that module, and
every function or class the package defines is referenced from the package
itself, apart from a short list of entry points that the benchmark harness
or argparse calls."""

import ast
import pathlib

import pytest

import gpquiver.cli

SOURCES = sorted(pathlib.Path(gpquiver.cli.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(gpquiver.cli.__file__).parents[2]


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


def referenced_names(sources: list) -> set:
    """Every name the sources use: as a name, an attribute, an imported name,
    or a dotted word of a string constant (the tracer patches functions by
    their dotted paths)."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(node.value.split("."))
    return used


def unreferenced_definitions(defining: dict, referring: list) -> list:
    """(file, line, qualified name) of each function or class defined in the
    sources of `defining` (name -> text) whose name no text in `referring`
    uses (referenced_names).  Dunder methods are called by the language and
    are left out.  Names are matched bare, so a method also counts as used
    when another definition of its name is."""
    used = referenced_names(referring)
    out = []

    def visit(file, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if not dunder and child.name not in used:
                    out.append((file, child.lineno, prefix + child.name))
                visit(file, child, f"{prefix}{child.name}.")
            else:
                visit(file, child, prefix)

    for name, source in defining.items():
        visit(name, ast.parse(source), "")
    return sorted(out)


def test_checker_sees_unreferenced_definitions():
    lib = ("class Used:\n    def method(self):\n        pass\n"
           "    def __eq__(self, other):\n        pass\n"
           "    def hook(self):\n        pass\n"
           "def traced():\n    pass\n"
           "def dead():\n    def inner():\n        pass\n")
    user = "from lib import Used\nUsed().method()\nTARGETS = {'x': ('lib', 'traced')}\n"
    assert unreferenced_definitions({"lib.py": lib}, [lib, user]) == [
        ("lib.py", 6, "Used.hook"), ("lib.py", 10, "dead"), ("lib.py", 11, "dead.inner")]
    assert unreferenced_definitions({"lib.py": lib}, [lib]) == [
        ("lib.py", 1, "Used"), ("lib.py", 2, "Used.method"), ("lib.py", 6, "Used.hook"),
        ("lib.py", 8, "traced"), ("lib.py", 10, "dead"), ("lib.py", 11, "dead.inner")]


# The definitions no route of the package reaches.  perfbench uses the first
# four as reference routes for its checks, or wraps them by name in its
# tracer; argparse calls the last.  Code that only the tests call lives in
# tests/ (crosscheck.py, derived_oracle.py).
PERFBENCH_ENTRY_POINTS = ("direct_sum_modules", "tensor_over_cat",
                          "NakayamaEngine.left_derived_nu",
                          "NakayamaEngine.right_derived_nu_minus")
ENTRY_POINTS = PERFBENCH_ENTRY_POINTS + ("_Parser.error",)


def test_every_definition_is_referenced():
    # from the package itself, apart from the named entry points
    defining = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    unreached = unreferenced_definitions(defining, list(defining.values()))
    assert sorted(name for _, _, name in unreached) == sorted(ENTRY_POINTS)


def test_perfbench_still_uses_its_entry_points():
    used = referenced_names([p.read_text(encoding="utf-8")
                             for p in sorted((ROOT / "perfbench").rglob("*.py"))])
    assert [e for e in PERFBENCH_ENTRY_POINTS if e.split(".")[-1] not in used] == []
