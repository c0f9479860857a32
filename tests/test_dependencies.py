"""numpy is the only runtime dependency: every import in the package names the
standard library, numpy or the package itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "poslp"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_names(tree):
    """Top-level module names of the absolute imports anywhere in `tree`,
    the ones inside functions included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files
    stray = {f"{path.name}: {name}" for path in files
             for name in imported_names(ast.parse(path.read_text()))
             if name not in ALLOWED}
    assert not stray, sorted(stray)


def test_a_stray_import_is_found():
    tree = ast.parse("import numpy.linalg\nfrom . import lft\n"
                     "def f():\n    from scipy.optimize import linprog\n")
    assert sorted(imported_names(tree)) == ["numpy", "scipy"]
