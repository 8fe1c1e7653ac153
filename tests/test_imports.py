"""Every name imported by the package modules and the tests is used."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (*ROOT.glob("src/rdsafe/*.py"), *ROOT.glob("tests/*.py"))
               if p.name != "__init__.py")


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
