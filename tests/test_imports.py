"""Every name a module of the package imports is used in that module.

No linter runs on the package, and deleting code tends to leave its
imports behind.  The package's __init__.py imports names only to
re-export them, so it is exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "evolalg"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
