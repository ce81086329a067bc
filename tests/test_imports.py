"""Source hygiene: no module of the package imports a name it never uses or
defines a private name that nothing reads."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ggmlink"
# __init__.py imports names only to re-export them.
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# Every module of src and tests: where a private name may be read.
SOURCES = sorted(PACKAGE.parent.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by import and never reads, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in read)


def private_definitions(source: str) -> list[str]:
    """The private (one leading underscore) names that ``source`` binds at
    module level by def, class or assignment, in order."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set[str]:
    """The names that ``source`` reads: loaded names, attributes and strings
    that are a whole name, as in monkeypatch.setattr(module, "_name", ...)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from json import dumps as to_json, loads\nsys.exit(loads(''))\n")
    assert unused_imports(source) == ["os", "to_json"]


def test_package_has_modules():
    assert {"solver.py", "symmat.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unread_private_name():
    source = ("import os as _os\n_A, (_B, c) = 1, (2, 3)\n_C: int = 4\n"
              "def _f(): return _A\nclass _K: pass\ndef _g(): pass\n"
              "setattr(_os, '_K', None)\nprint(_os.sep)\n")
    assert private_definitions(source) == ["_A", "_B", "_C", "_f", "_K", "_g"]
    unread = [name for name in private_definitions(source) if name not in names_read(source)]
    assert unread == ["_B", "_C", "_f", "_g"]


@pytest.fixture(scope="module")
def all_reads():
    return set().union(*(names_read(path.read_text(encoding="utf-8")) for path in SOURCES))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unread_private_names(path, all_reads):
    # A module-level private name that no module of src or tests reads is dead.
    assert [name for name in private_definitions(path.read_text(encoding="utf-8"))
            if name not in all_reads] == []
