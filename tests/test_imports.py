"""Every name imported by the package modules and the tests is used, every
top-level definition of the package is exported or used, every defaulted
parameter of a package function and every defaulted field of a package
dataclass is set by some call, every package name the README cites exists,
the README's library quickstart runs and imports only what it uses, and every
flag of the README's CLI examples is a setting of its command."""
import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

import rdsafe
from rdsafe.cli import COMMANDS

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


def top_level_names(tree):
    """(line, name) of each top-level def, class and assigned name, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield node.lineno, target.id


def dead_definitions(modules: dict):
    """(module, name) of each top-level def, class or assigned constant that
    the `__init__` module does not import and no module reads, as a name or an
    attribute.

    `modules` maps module names, `__init__` among them, to their source.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    named = {alias.asname or alias.name for node in ast.walk(trees["__init__"])
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [(module, name) for module, tree in trees.items()
            for _, name in top_level_names(tree) if name not in named]


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
            "    return b.via_attribute() + READ + b.ANNOTATED\n"
            "READ = 1\n"
            "UNREAD = 2\n"
            "__all__ = []\n"
        ),
        "b": "class Orphan:\n    pass\nANNOTATED: int = 3\n",
    }
    assert dead_definitions(modules) == [("a", "unused"), ("a", "UNREAD"), ("b", "Orphan")]


def test_no_dead_definitions():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert dead_definitions(modules) == []


def calls_by_name(callers: list) -> dict:
    """Each called name in the `callers` sources -> its calls, whether written
    `f(...)` or `obj.f(...)`."""
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def sets(call: ast.Call, index, name: str) -> bool:
    """Whether `call` sets the parameter `name`, by keyword or at position
    `index` (None for keyword-only). A call that passes *args or **kwargs
    sets every parameter."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, name) for k in call.keywords)
            or (index is not None and index < len(call.args)))


def dead_parameters(package: dict, callers: list):
    """(module, function, parameter) of each defaulted parameter of a package
    function that no call in `callers` sets, by keyword or by position.

    `package` maps module names to their source; `callers` lists sources. A
    call is matched to every function of its name, and a call of a class to
    its `__init__`.
    """
    functions = []  # (module, qualified name, name it is called by, def node)
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                functions.append((module, node.name, node.name, node))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        called = node.name if item.name == "__init__" else item.name
                        functions.append((module, f"{node.name}.{item.name}", called, item))
    calls = calls_by_name(callers)
    dead = []
    for module, qualname, called, fn in functions:
        positional = fn.args.posonlyargs + fn.args.args
        if "." in qualname:
            positional = positional[1:]  # self
        defaulted = [(i, a.arg) for i, a in enumerate(positional)
                     if i >= len(positional) - len(fn.args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if d is not None]
        for index, name in defaulted:
            if not any(sets(c, index, name) for c in calls.get(called, [])):
                dead.append((module, qualname, name))
    return dead


def test_dead_parameter_scanner():
    package = {"a": (
        "def f(x, flag=False, *, sep=','):\n    pass\n"
        "class C:\n"
        "    def __init__(self, n=1, m=2):\n        pass\n"
        "    def run(self, k=0):\n        pass\n"
        "def g(v=1):\n    pass\n"
        "def h(a, b=2):\n    pass\n"
        "def unused(z=1):\n    pass\n"
    )}
    callers = ["f(1, True)\nC(m=3)\nobj.run(5)\n", "g(**options)\nh(*args)\n"]
    assert dead_parameters(package, callers) == [
        ("a", "f", "sep"), ("a", "C.__init__", "n"), ("a", "unused", "z")]


def test_no_dead_parameters():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    callers = [p.read_text(encoding="utf-8") for p in FILES]
    assert dead_parameters(package, callers) == []


def dead_fields(package: dict, callers: list):
    """(module, class, field) of each defaulted field of a package dataclass
    that no call of the class in `callers` sets, by keyword or by position.

    A dataclass is a class decorated `@dataclass` or `@dataclass(...)`; its
    fields are the annotated names of its body, in order.
    """
    calls = calls_by_name(callers)
    dead = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [getattr(d, "func", d) for d in node.decorator_list]
            if "dataclass" not in {getattr(d, "id", getattr(d, "attr", None)) for d in decorators}:
                continue
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            for index, item in enumerate(fields):
                name = item.target.id
                if item.value is not None and not any(sets(c, index, name)
                                                      for c in calls.get(node.name, [])):
                    dead.append((module, node.name, name))
    return dead


def test_dead_field_scanner():
    package = {"a": (
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    name: str\n"
        "    size: int = 1\n"
        "    noise: float = 0.3\n"
        "    cutoffs: dict = field(default_factory=dict)\n"
        "    def method(self, k=0):\n        pass\n"
        "@dataclasses.dataclass\n"
        "class Row:\n    a: int = 0\n    b: int = 1\n"
        "@dataclass\n"
        "class Splat:\n    c: int = 0\n"
        "class Plain:\n    d: int = 0\n"
    )}
    callers = ["Spec('x', 5)\nmod.Row(b=2)\nobj.method(k=1)\n", "Splat(**options)\n"]
    assert dead_fields(package, callers) == [
        ("a", "Spec", "noise"), ("a", "Spec", "cutoffs"), ("a", "Row", "a")]


def test_no_dead_fields():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    callers = [p.read_text(encoding="utf-8") for p in FILES]
    assert dead_fields(package, callers) == []


# backticked names ending in these are file names, not package names
FILE_SUFFIXES = {"csv", "json", "yaml", "py", "md"}


def readme_names(text: str, heads: set):
    """Each backticked dotted name in `text` whose first part is in `heads`,
    file names excepted."""
    for ref in re.findall(r"`([A-Za-z_][\w.]*)`", text):
        head, dot, _ = ref.partition(".")
        if dot and head in heads and ref.rsplit(".", 1)[1] not in FILE_SUFFIXES:
            yield ref


def test_readme_name_scanner():
    text = ("`rdsafe.cli` writes `sweep.csv`; `core.Dataset` and `Thing.method`, "
            "not `other.name`, `Thing` or `core.py`.")
    heads = {"rdsafe", "core", "Thing"}
    assert list(readme_names(text, heads)) == ["rdsafe.cli", "core.Dataset", "Thing.method"]


def test_readme_names_resolve():
    for path in PACKAGE:
        importlib.import_module(f"rdsafe.{path.stem}")
    # rdsafe itself, its modules and its exported names
    heads = {"rdsafe", *(name for name in dir(rdsafe) if not name.startswith("_"))}
    missing = []
    for ref in readme_names((ROOT / "README.md").read_text(encoding="utf-8"), heads):
        try:
            functools.reduce(getattr, ref.removeprefix("rdsafe.").split("."), rdsafe)
        except AttributeError:
            missing.append(ref)
    assert missing == []


def quickstart(text: str) -> str:
    """The first Python block under the "Library quickstart" heading."""
    section = text.split("\n## Library quickstart\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_runs(capsys):
    code = quickstart((ROOT / "README.md").read_text(encoding="utf-8"))
    assert unused_imports(code) == []
    exec(compile(code, "README.md quickstart", "exec"), {})
    assert capsys.readouterr().out


def cli_flags(text: str):
    """(command, flag) of each `--flag` on an `rdsafe` line of the first shell
    block under the "CLI" heading, with continued lines joined."""
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["rdsafe"]:
            yield from ((words[1], flag) for flag in re.findall(r"--(\w+)", line))


def test_readme_cli_flag_scanner():
    text = ("intro\n## CLI\n\n```bash\n# not a command --help\nrdsafe learn --input a \\\n"
            "    --seed 0\nrdsafe validate --design d\n```\n\n```bash\nrdsafe learn --x\n```\n")
    assert list(cli_flags(text)) == [("learn", "input"), ("learn", "seed"),
                                     ("validate", "design")]


def test_readme_cli_flags_are_settings():
    flags = list(cli_flags((ROOT / "README.md").read_text(encoding="utf-8")))
    assert {command for command, _ in flags} == set(COMMANDS)
    assert [(command, flag) for command, flag in flags
            if flag != "config" and flag not in COMMANDS[command][2]] == []
