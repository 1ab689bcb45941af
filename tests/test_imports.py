"""Every name a module of the package imports is used in that module.

No linter runs on the package, and deleting code tends to leave its
imports behind.  The package's __init__.py imports names only to
re-export them, so it is exempt.  The README's library tour likewise
imports only exported names, and it runs as written.  The exported
names hold no submodule, so a star-import rebinds no name to a module.
"""

import ast
import re
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


def test_the_package_has_modules():
    assert {"algebra.py", "cli.py", "decompose.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["%s (line %d)" % (name, line) for name, line in imported_names(tree)
              if name not in used]
    assert not unused, "%s imports names it never uses: %s" % (module, ", ".join(unused))


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
