"""The package's imports: third-party ones match pyproject.toml's dependency
list, CSV text is handled in one module, F1 is scored in one module, and no
module reaches into another's private names."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "imbenhance"


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of every absolute import in one module, lazy ones included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def third_party_imports() -> set[str]:
    """Every module's absolute imports, less the standard library and the package itself."""
    names = set().union(*(absolute_imports(path) for path in PACKAGE.glob("*.py")))
    return names - set(sys.stdlib_module_names) - {PACKAGE.name}


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in project["dependencies"]}


def test_package_imports_are_the_declared_dependencies():
    imported = third_party_imports()
    assert imported, "the package imports numpy at least"
    assert imported == declared_dependencies()


def test_only_data_imports_csv():
    assert {path.name for path in PACKAGE.glob("*.py") if "csv" in absolute_imports(path)} \
        == {"data.py"}


def referenced_names(path: Path) -> set[str]:
    """Every name one module defines, imports, reads or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_only_metrics_references_f1_score():
    """Stages score through ``metrics.decision_f1``; a second scorer would be a second rule."""
    assert {path.name for path in PACKAGE.glob("*.py") if "f1_score" in referenced_names(path)} \
        == {"metrics.py"}


def test_library_modules_import_no_private_names():
    """A name with a leading underscore belongs to its module; others use the public one."""
    private = {f"{path.name}: from .{node.module} import {alias.name}"
               for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")}
    assert private == set()
