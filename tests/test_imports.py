"""Every name a package module imports is used by that module, and every name
it defines at top level is read somewhere in the repository's code."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bistable_qubit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports
READERS = sorted(p for folder in ("src", "tests", "bench") for p in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression of ``source`` reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_unused_import():
    source = "import math\nimport numpy as np\nfrom . import telegraph\nx = np.zeros(1)\n"
    assert unused_imports(source) == ["math", "telegraph"]


def top_level_definitions(source: str) -> list[str]:
    """The functions, classes and constants ``source`` defines at top level, dunders left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def names_read(source: str) -> set[str]:
    """Every name ``source`` reads, bare (``name``) or as an attribute (``module.name``)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for every top-level definition of ``modules`` that no reader reads."""
    read = set().union(*map(names_read, readers))
    return [f"{module}.{name}" for module, source in modules.items()
            for name in top_level_definitions(source) if name not in read]


def test_every_definition_is_read():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8") for p in READERS]
    assert unread_definitions(modules, readers) == []


def test_guard_flags_an_unread_definition():
    module = "X = 1\n_Y: int = 2\n__all__ = []\ndef used():\n    return X\ndef unused():\n    pass\nclass Unused:\n    pass\n"
    reader = "import m\nm.used()\nm.Unused = None\n"
    assert unread_definitions({"m": module}, [module, reader]) == ["m._Y", "m.unused", "m.Unused"]
