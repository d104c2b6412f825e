"""Static checks on what the files import.

The oracles and the package stay two separate code paths:
``tests/oracles.py`` checks the package, so it must not import it, and no
package module may import the oracles. And every name a package module
imports is used in it (``__init__.py`` imports only to re-export).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _imported_modules(path):
    """Top-level names of every module a file imports, relative ones as '.'."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.split(".")[0])
            if node.level:
                names.add(".")
                names.update(alias.name for alias in node.names)
    return names


def test_oracles_import_nothing_from_the_package():
    imported = _imported_modules(ROOT / "tests" / "oracles.py")
    assert "bellccp" not in imported and "." not in imported


def test_the_package_imports_no_oracle():
    sources = sorted((ROOT / "src" / "bellccp").glob("*.py"))
    assert sources
    for path in sources:
        assert "oracles" not in _imported_modules(path), path.name


def _unused_imports(path):
    """Names a file imports but never reads; ``__future__`` imports are directives."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_package_uses_every_name_it_imports():
    sources = sorted(path for path in (ROOT / "src" / "bellccp").glob("*.py")
                     if path.name != "__init__.py")
    assert sources
    unused = {path.name: names for path in sources if (names := _unused_imports(path))}
    assert unused == {}
