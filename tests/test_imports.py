"""Every name imported by the package modules and the tests is used, and every
top-level definition of the package is exported or used."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/rdsafe/*.py"))
FILES = sorted(p for p in (*PACKAGE, *ROOT.glob("tests/*.py")) if p.name != "__init__.py")


def unused_imports(source: str):
    """(line, name) of each imported name that no expression reads.

    `__future__` imports and imports on a line marked `# noqa` are skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa" in lines[alias.lineno - 1]:
                continue
            imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,\n"
        ")\n"
        "import sys  # noqa: F401\n"
        "def f(x: dumps) -> None:\n"
        "    return osp.join(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (6, "loads")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_definitions(modules: dict):
    """(module, name) of each top-level def or class that the `__init__` module
    does not import and no module reads, as a name or an attribute.

    `modules` maps module names, `__init__` among them, to their source.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    named = {alias.asname or alias.name for node in ast.walk(trees["__init__"])
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, defs) and node.name not in named]


def test_dead_definition_scanner():
    modules = {
        "__init__": "from .a import Exported\n",
        "a": (
            "class Exported:\n"
            "    def method(self):\n"
            "        return helper()\n"
            "def helper():\n"
            "    return 1\n"
            "def via_attribute():\n"
            "    return 2\n"
            "def unused():\n"
            "    return b.via_attribute()\n"
        ),
        "b": "class Orphan:\n    pass\n",
    }
    assert dead_definitions(modules) == [("a", "unused"), ("b", "Orphan")]


def test_no_dead_definitions():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert dead_definitions(modules) == []
