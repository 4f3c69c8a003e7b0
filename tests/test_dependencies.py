"""The package's third-party imports and pyproject.toml's dependency list agree."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "imbenhance"


def third_party_imports() -> set[str]:
    """Top-level names of every absolute import in the package, lazy ones
    included, less the standard library and the package itself."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {PACKAGE.name}


def declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in project["dependencies"]}


def test_package_imports_are_the_declared_dependencies():
    imported = third_party_imports()
    assert imported, "the package imports numpy at least"
    assert imported == declared_dependencies()
