"""Every import in the package is used, and every export resolves.

No linter runs with the tests, so this stdlib-ast check is what catches an
import left behind when the code that used it is deleted.  Exempt are
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


def test_every_export_resolves_once():
    names = filtered_ie23.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(filtered_ie23, n)] == []
