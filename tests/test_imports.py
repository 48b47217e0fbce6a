"""Every name a module of the package or of its tests imports is used in
that module, and every function or class the package defines is referenced
from the package itself, apart from a short list of entry points that the
benchmark harness or argparse calls.  Each CLI command imports only the
layers it runs."""

import ast
import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import gpquiver.cli

SOURCES = sorted(pathlib.Path(gpquiver.cli.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(gpquiver.cli.__file__).parents[2]
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
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


def unreferenced_definitions(defining: dict, referring: list, shared: tuple = ()) -> list:
    """(file, line, qualified name) of each function or class defined in the
    sources of `defining` (name -> text) whose name no text in `referring`
    uses (referenced_names).  Dunder methods are called by the language and
    are left out.  Names are matched bare, so a name defined more than once
    counts as used only if it is in `shared`: otherwise one used definition
    would hide a dead one of the same name.  The methods of one class
    family, classes with a common base class in the same module (overrides
    of its methods and siblings implementing its interface), are one
    definition."""
    used = referenced_names(referring)
    defs = []  # (file, line, qualified name, bare name, family)

    def visit(file, node, prefix, roots):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                family = roots.get(node.name, node.name) if isinstance(node, ast.ClassDef) \
                    else prefix + child.name
                defs.append((file, child.lineno, prefix + child.name, child.name, (file, family)))
                visit(file, child, f"{prefix}{child.name}.", roots)
            else:
                visit(file, child, prefix, roots)

    for name, source in defining.items():
        tree = ast.parse(source)
        roots = {}  # class -> its first base class defined in this module, transitively
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            base = next((b.id for b in cls.bases if isinstance(b, ast.Name) and b.id in roots),
                        None)
            roots[cls.name] = roots[base] if base else cls.name
        visit(name, tree, "", roots)
    families = {}
    for *_, bare, family in defs:
        families.setdefault(bare, set()).add(family)
    return sorted((file, line, qual) for file, line, qual, bare, _ in defs
                  if not (bare.startswith("__") and bare.endswith("__"))
                  and (bare not in used or (len(families[bare]) > 1 and bare not in shared)))


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


def test_checker_sees_a_dead_method_behind_a_shared_name():
    # A.hook is used, B.hook is dead; a bare name cannot tell them apart, so
    # both are reported unless the name is declared shared
    lib = ("class A:\n    def hook(self):\n        pass\n"
           "class B:\n    def hook(self):\n        pass\n")
    user = "from lib import A, B\nA().hook()\n"
    assert unreferenced_definitions({"lib.py": lib}, [user]) == [
        ("lib.py", 2, "A.hook"), ("lib.py", 5, "B.hook")]
    assert unreferenced_definitions({"lib.py": lib}, [user], ("hook",)) == []
    # an override, or a sibling's method, of a base class in the same module
    # is one definition with the base's
    family = ("class Base:\n    def step(self):\n        pass\n"
              "class Sub(Base):\n    def step(self):\n        pass\n"
              "class Sib(Base):\n    def step(self):\n        pass\n"
              "    def only(self):\n        pass\n"
              "class Subsub(Sub):\n    def only(self):\n        pass\n")
    user = "from lib import Sub, Sib, Subsub\nSub().step(); Sib().only()\n"
    assert unreferenced_definitions({"lib.py": family}, [user]) == [("lib.py", 1, "Base")]


# The definitions no route of the package reaches.  perfbench uses the first
# four as reference routes for its checks, or wraps them by name in its
# tracer; argparse calls the last.  Code that only the tests call lives in
# tests/ (crosscheck.py, derived_oracle.py).
PERFBENCH_ENTRY_POINTS = ("direct_sum_modules", "tensor_over_cat",
                          "NakayamaEngine.left_derived_nu",
                          "NakayamaEngine.right_derived_nu_minus")
ENTRY_POINTS = PERFBENCH_ENTRY_POINTS + ("_Parser.error",)
# The names more than one class of the package defines, each used as its own.
SHARED_NAMES = ("identity", "is_zero", "total_dim", "validate")


def test_every_definition_is_referenced():
    # from the package itself, apart from the named entry points
    defining = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    unreached = unreferenced_definitions(defining, list(defining.values()), SHARED_NAMES)
    assert sorted(name for _, _, name in unreached) == sorted(ENTRY_POINTS)


def test_perfbench_still_uses_its_entry_points():
    used = referenced_names([p.read_text(encoding="utf-8")
                             for p in sorted((ROOT / "perfbench").rglob("*.py"))])
    assert [e for e in PERFBENCH_ENTRY_POINTS if e.split(".")[-1] not in used] == []


@functools.cache
def imports(path: pathlib.Path) -> list:
    """(module, whether the statement is at module level) of each import in
    the file; a relative module is named without its leading dots."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = set(map(id, tree.body))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, id(node) in top) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.module or "", id(node) in top))
    return found


def third_party_imports(source: str) -> list:
    """Each module an absolute import of the source names whose top-level
    package is not in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return [m for m in found if m.split(".")[0] not in sys.stdlib_module_names]


def test_checker_sees_third_party_imports():
    src = "import os.path\nimport numpy as np\nfrom . import io\nfrom .linalg import QQ\n" \
          "from __future__ import annotations\nfrom sympy.core import S\n"
    assert third_party_imports(src) == ["numpy", "sympy.core"]


def test_sources_import_only_the_standard_library():
    # the package has no dependencies: it stays stdlib-only
    assert [(p.name, m) for p in SOURCES
            for m in third_party_imports(p.read_text(encoding="utf-8"))] == []


def test_no_source_imports_dataclasses():
    # importing dataclasses loads inspect, and each decorated class is built
    # by generated code: start-up every command would pay
    assert [(p.name, m) for p in SOURCES for m, _ in imports(p)
            if m.split(".")[0] == "dataclasses"] == []


@pytest.mark.parametrize("name", ["category", "linalg", "modules", "nakayama", "gorenstein",
                                  "basechange"])
def test_layers_import_only_at_module_level(name):
    # the layers are the benchmarks' hot paths: an import in a function body
    # runs on every call
    assert [m for m, top in imports(SOURCES[0].parent / f"{name}.py") if not top] == []


# One process runs these commands in turn; after each, the gpquiver modules
# loaded so far are those of the commands run: cli.py and io.py, then the
# layers each command adds.
LAYERS_ADDED = [
    (["fixtures"], {"cli", "io"}),
    (["cat-info", "chain2.cat"], {"category", "linalg"}),
    (["resolve", "a2_incl.rep"], {"modules"}),
    (["nakayama", "a2_incl.rep"], {"nakayama"}),
    (["check", "monic", "a2_incl.rep"], {"gorenstein", "basechange"}),
]

RUN_COMMANDS = """\
import contextlib, io, json, sys
from gpquiver import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    print(json.dumps([status, sorted(m for m in sys.modules if m.startswith("gpquiver."))]))
"""


def test_each_command_loads_only_the_layers_it_runs():
    fixtures = pathlib.Path(gpquiver.cli.fixtures_dir())
    argvs = [[str(fixtures / a) if "." in a else a for a in argv] for argv, _ in LAYERS_ADDED]
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parents[1]))
    proc = subprocess.run([sys.executable, "-c", RUN_COMMANDS, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    loaded, expected = set(), []
    for _, added in LAYERS_ADDED:
        loaded |= added
        expected.append([0, sorted(f"gpquiver.{m}" for m in loaded)])
    assert [json.loads(line) for line in proc.stdout.splitlines()] == expected
