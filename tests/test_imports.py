"""Every name a module of the package imports is used in that module,
and every local name a function binds is read.

No linter runs on the package, and deleting code tends to leave its
imports and locals behind.  The package's __init__.py imports names only
to re-export them, so it is exempt.  The README's library tour likewise
imports only exported names, and it runs as written.  The exported
names hold no submodule, so a star-import rebinds no name to a module.

Every CLI call is a fresh process that imports the package, so no module
imports dataclasses or typing: building a dataclass execs generated code,
and dataclasses brings inspect, ast, dis and tokenize along.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "evolalg"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
README = PACKAGE.parent.parent / "README.md"


def imported_names(tree):
    """(bound name, line) of each import; `import a.b` binds a."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def imported_modules(tree):
    """The top-level name of each module an absolute import reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_package_has_modules():
    assert {"algebra.py", "cli.py", "decompose.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["%s (line %d)" % (name, line) for name, line in imported_names(tree)
              if name not in used]
    assert not unused, "%s imports names it never uses: %s" % (module, ", ".join(unused))


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_dataclasses_or_typing(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert not {"dataclasses", "typing"} & set(imported_modules(tree))


def test_importing_the_cli_loads_no_code_generation_machinery():
    # -S: a site module may import typing itself
    probe = ("import sys, evolalg.cli; print(*[m for m in %r if m in sys.modules])"
             % (("dataclasses", "inspect", "typing", "ast", "dis", "tokenize"),))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_scope(function):
    """The nodes of a function's body, less those inside the functions,
    lambdas and classes defined in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, NESTED_SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(function):
    """(name, line) of each name the function binds in its own scope and
    nothing in it reads, nested functions included; names starting with
    _ and names declared global or nonlocal are exempt."""
    nodes = list(own_scope(function))
    declared = {name for node in nodes if isinstance(node, (ast.Global, ast.Nonlocal))
                for name in node.names}
    bound = {}
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.setdefault(node.id, node.lineno)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.setdefault(node.name, node.lineno)
    read = {node.id for node in ast.walk(function)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(((name, line) for name, line in bound.items()
                   if name not in read and name not in declared and not name.startswith("_")),
                  key=lambda item: item[1])


@pytest.mark.parametrize("module", MODULES)
def test_every_local_name_is_read(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    dead = ["%s in %s (line %d)" % (name, function.name, line)
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for name, line in unread_locals(function)]
    assert not dead, "%s binds locals it never reads: %s" % (module, ", ".join(dead))


def test_unread_locals_are_found():
    tree = ast.parse(
        "def f(a):\n"
        "    field = a.field\n"          # bound, never read
        "    total = 0\n"
        "    for _, x in a:\n"
        "        total += x\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"  # bound, never read
        "        pass\n"
        "    def g():\n"
        "        nonlocal total\n"
        "        total = 1\n"
        "    return total, g, [y for y in a]\n")
    assert unread_locals(tree.body[0]) == [("field", 2), ("exc", 8)]


def test_readme_tour_imports_exported_names_and_runs():
    import evolalg

    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    statement = ast.parse(tour).body[0]
    assert isinstance(statement, ast.ImportFrom) and statement.module == "evolalg"
    assert {alias.name for alias in statement.names} <= set(evolalg.__all__)
    exec(compile(tour, "README.md", "exec"), {})


def test_star_import_binds_no_module():
    # importing the submodules binds them in the package namespace, and a
    # star-import of a submodule name would rebind a caller's graph or
    # fields to the module
    import types

    import evolalg

    assert not [name for name in evolalg.__all__
                if isinstance(getattr(evolalg, name), types.ModuleType)]
    namespace = {}
    exec("from evolalg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(evolalg.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
