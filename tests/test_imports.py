"""Every import in the package is used, every private name is read, and
every export resolves.

No linter runs with the tests, so these stdlib-ast checks are what catch an
import left behind when the code that used it is deleted, and a private
helper that only the tests keep alive.  Exempt from the import check are
`from __future__` imports, the names `__init__.py` re-exports through
`__all__`, and lines marked `# noqa: F401`.
"""

import ast
from pathlib import Path

import pytest

import filtered_ie23

PACKAGE = Path(filtered_ie23.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def _unused_imports(source, exempt):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exempt)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    exempt = set(filtered_ie23.__all__) if module == "__init__.py" else set()
    source = (PACKAGE / module).read_text()
    assert _unused_imports(source, exempt) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from typing import Optional  # noqa: F401\n"
              "from .core import Vector, all_finite\n"
              "x = all_finite(math.pi)\n")
    assert _unused_imports(source, set()) == [(2, "os"), (4, "Vector")]
    assert _unused_imports(source, {"os"}) == [(4, "Vector")]


def _unread_private_names(sources):
    """Module-level names with one leading underscore that no module reads,
    as a Name load, an attribute or a from-import, as (module, name)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            unread += [(module, name) for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return sorted(unread)


def test_every_private_name_is_read():
    sources = {module: (PACKAGE / module).read_text() for module in MODULES}
    assert _unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": ("__all__ = ['f']\n_SCALE = 2.0\n_LIMIT: float = 1.0\n"
                 "def _parts(x):\n    return x\n"
                 "def _helper(x):\n    return x\n"
                 "class _Kept:\n    pass\n"
                 "def f(x):\n    return _parts(x) * _SCALE\n"),
        "b.py": "from .a import _Kept\n",
    }
    assert _unread_private_names(sources) == [("a.py", "_LIMIT"), ("a.py", "_helper")]


def test_every_export_resolves_once():
    names = filtered_ie23.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(filtered_ie23, n)] == []
