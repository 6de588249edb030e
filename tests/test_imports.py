"""Every import in the package is used, every private or unexported name
is read, and every export resolves.

No linter runs with the tests, so these stdlib-ast checks are what catch an
import left behind when the code that used it is deleted, and a helper that
only the tests keep alive: a private one, or a public one that `__all__`
does not export.  Exempt from the import check are
`from __future__` imports, the names `__init__.py` re-exports through
`__all__`, and lines marked `# noqa: F401`.

The last checks keep the per-step code free of closure cells (see the
docstring of filters.py), and the generated code from reading a name that
its globals do not hold, which would fail only when that line ran.
"""

import ast
import dis
import sys
import types
from pathlib import Path

import pytest

import filtered_ie23
from filtered_ie23 import adaptive, core, filters, newton, steppers

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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(node):
    """The nodes under node, without those of a nested function or class."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        child = todo.pop()
        yield child
        if not isinstance(child, _SCOPES):
            todo.extend(ast.iter_child_nodes(child))


def _locals(scope):
    """The names a function binds in its own scope, its arguments included,
    less those it declares global; none for a class body."""
    if isinstance(scope, ast.ClassDef):
        return set()
    args = scope.args
    names = {arg.arg for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg] if arg is not None}
    declared = set()
    for node in _own_scope(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
    return names - declared


def _reads(scope, shadowed=frozenset()):
    """The module-level names read under scope, as a Name load outside the
    functions that bind the name as a local, an attribute or a from-import."""
    for node in _own_scope(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in shadowed:
                yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, _SCOPES):
            yield from _reads(node, shadowed | _locals(node))


def _unread_names(sources, wanted):
    """Module-level names for which wanted(name) holds and that no module
    reads (see _reads), as (module, name)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        read.update(_reads(tree))
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
                       if wanted(name) and name not in read]
    return sorted(unread)


def _unread_private_names(sources):
    """Names with one leading underscore that nothing reads."""
    return _unread_names(
        sources, lambda name: name.startswith("_") and not name.startswith("__"))


def _unread_public_names(sources, exported):
    """Names without a leading underscore, outside `exported`, that nothing
    reads: a helper whose last caller left the package."""
    return _unread_names(
        sources, lambda name: not name.startswith("_") and name not in exported)


def _package_sources():
    return {module: (PACKAGE / module).read_text() for module in MODULES}


def test_every_private_name_is_read():
    assert _unread_private_names(_package_sources()) == []


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


def test_every_unexported_public_name_is_read():
    # a public name that __all__ leaves out exists for the package itself,
    # so src/ must read it; tests alone do not keep it alive
    assert _unread_public_names(_package_sources(), set(filtered_ie23.__all__)) == []


def test_the_check_sees_an_unread_public_name():
    sources = {
        "a.py": ("SCALE = 2.0\nLIMIT: float = 1.0\n"
                 "def parts(x):\n    return x\n"
                 "def helper(x):\n    return x\n"
                 "def f(x):\n    return parts(x) * SCALE\n"
                 "def g(x):\n    return x\n"
                 # a local of the same name is not a read of the module's
                 "def shadowed(x):\n    return x\n"
                 "def h(x, step):\n    shadowed = step\n    return shadowed(x) + step(x)\n"
                 "def step(x):\n    return x\n"
                 # a nested function reads the module's name unless an
                 # enclosing function binds it
                 "def nested(x):\n    return x\n"
                 "def closed(x):\n    return x\n"
                 "def k(x, closed):\n    def inner(y):\n"
                 "        return nested(y) + closed(y)\n    return inner(x)\n"),
        "b.py": "from .a import g\n",
    }
    assert _unread_public_names(sources, {"f", "h", "k"}) == [
        ("a.py", "LIMIT"), ("a.py", "closed"), ("a.py", "helper"), ("a.py", "shadowed"),
        ("a.py", "step")]


def test_every_export_resolves_once():
    names = filtered_ie23.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(filtered_ie23, n)] == []


# the code that runs once per step, attempt or Newton iteration, the
# generated kernels included
PER_STEP = [filters.curvature, filters._beta, filters.step_factors,
            *filters.kernels(1), *filters.kernels(2), *filters.kernels(4),
            steppers.rk3_step, steppers._solve_ie_filtered,
            steppers.solve_rk4_reference, steppers._rk4, steppers._grid_columns,
            newton._fd_jacobian, newton._stage_kernel(1), newton._stage_kernel(2),
            newton._stage_kernel(3), newton._stage_kernel(4),
            newton.implicit_euler_stage, adaptive.solve_filtered_ie23,
            adaptive._loop(1, None), adaptive._loop(2, 0), adaptive._loop(4, 0),
            core.Trajectory.append, core.Trajectory._take_states]

# the generated code, whose source no import check reads
GENERATED = [newton._stage_kernel(d) for d in (1, 2, 3, 4)] + [
    adaptive._loop(1, None), adaptive._loop(2, 0), adaptive._loop(4, 0),
    *filters.kernels(1), *filters.kernels(2), *filters.kernels(4)]


@pytest.mark.parametrize("function", PER_STEP, ids=lambda f: f.__qualname__)
def test_per_step_code_makes_no_cells(function):
    assert function.__code__.co_cellvars == ()


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="PEP 709 inlines comprehensions: no cells to see")
def test_the_check_sees_a_cell():
    def scaled(h, y):
        return tuple([h * y[i] for i in range(len(y))])

    assert scaled.__code__.co_cellvars == ("h", "y")


def _unresolved_globals(function):
    """The global names that function's code, nested code included, loads
    and that neither its __globals__ nor its builtins hold."""
    missing, codes = set(), [function.__code__]
    while codes:
        code = codes.pop()
        for instruction in dis.get_instructions(code):
            name = instruction.argval
            if (instruction.opname == "LOAD_GLOBAL" and name not in function.__globals__
                    and name not in function.__builtins__):
                missing.add(name)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return sorted(missing)


@pytest.mark.parametrize("function", GENERATED, ids=lambda f: f.__qualname__)
def test_generated_code_reads_only_names_its_globals_hold(function):
    assert _unresolved_globals(function) == []


def test_the_check_sees_a_missing_global():
    scaled, = core._compile({"__name__": "check"}, "missing", (
        "def scaled(h, y):\n"
        "    if not h:\n"
        "        raise Missing(h)\n"
        "    def inner(v):\n"
        "        return absent(v)\n"
        "    return [h * abs(v) for v in inner(y)]\n"))
    assert _unresolved_globals(scaled) == ["Missing", "absent"]
