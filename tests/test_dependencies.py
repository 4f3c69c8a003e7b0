"""The package's imports: third-party ones match pyproject.toml's dependency
list, CSV text is handled in one module, integer and real types are checked
in one module and no interval check is written by hand, F1 is scored in one
module, only the stages pick a winner, only the pipeline draws a split, the
technique classes and the model classes are each named in one module, each
module imports only lower layers, no module reaches into another's private
names, and bad input raises nothing but ValueError."""

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


def test_only_data_checks_integer_types():
    """``data.check_count`` is the one check of a count or a seed, and
    ``data.check_number`` the one check of a real-valued setting."""
    assert {path.name for path in PACKAGE.glob("*.py") if "numbers" in absolute_imports(path)} \
        == {"data.py"}


def is_number_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def test_no_module_writes_an_interval_check_by_hand():
    """A bound such as ``0.0 <= x < 1.0`` is checked by ``data.check_number``,
    which names the setting, its interval and the value in one message."""
    found = {f"{path.name}: line {node.lineno}"
             for path in PACKAGE.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Compare) and len(node.ops) > 1
             and (is_number_literal(node.left) or is_number_literal(node.comparators[-1]))}
    assert found == set()


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


def test_only_the_stages_pick_by_first_best():
    """Each stage decides its own winner; a report reads the decision, it does not redo it."""
    assert {path.name for path in PACKAGE.glob("*.py") if "first_best" in referenced_names(path)} \
        == {"metrics.py", "synthesis.py", "filtering.py", "selflearn.py"}


def test_only_data_and_pipeline_draw_splits():
    """The pipeline draws every holdout and fold and hands the stages their parts."""
    assert {path.name for path in PACKAGE.glob("*.py")
            if path.name != "__init__.py"
            and {"stratified_split", "SplitSpec"} & referenced_names(path)} \
        == {"data.py", "pipeline.py"}


def test_only_synthesis_names_the_technique_classes():
    """Config tokens become race entries in ``synthesis.build_techniques`` alone."""
    assert {path.name for path in PACKAGE.glob("*.py")
            if path.name != "__init__.py" and "Technique" in referenced_names(path)} \
        == {"synthesis.py"}


def test_only_classifiers_names_the_model_classes():
    """``classifiers.fit`` is the one place a spec becomes a model."""
    models = {"DecisionTreeModel", "RandomForestModel", "LogisticRegressionModel"}
    assert {path.name for path in PACKAGE.glob("*.py")
            if models & referenced_names(path)} == {"classifiers.py"}


# Lowest first; a module imports only from layers below its own.
LAYERS = (("data",), ("classifiers",), ("metrics",), ("synthesis", "filtering", "selflearn"),
          ("pipeline",), ("cli",))


def test_library_modules_import_only_lower_layers():
    rank = {module: i for i, layer in enumerate(LAYERS) for module in layer}
    modules = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    assert {path.stem for path in modules} == set(rank)
    upward = {f"{path.stem} imports {node.module}"
              for path in modules
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
              if isinstance(node, ast.ImportFrom) and node.level > 0
              and rank[node.module] >= rank[path.stem]}
    assert upward == set()


def test_library_modules_import_no_private_names():
    """A name with a leading underscore belongs to its module; others use the public one."""
    private = {f"{path.name}: from .{node.module} import {alias.name}"
               for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")}
    assert private == set()


def test_no_module_defines_an_exception_or_catches_everything():
    """Bad input raises ValueError (prefixed through ``data.prefix_errors``), so no
    module needs an exception class of its own, and a catch-all would pass a bug
    off as bad input."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef):
                bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
                if any(base.endswith(("Error", "Exception")) for base in bases):
                    found.add(f"{path.name}: class {node.name}({', '.join(sorted(bases))})")
            elif isinstance(node, ast.ExceptHandler):
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(c is None or isinstance(c, ast.Name)
                       and c.id in ("Exception", "BaseException") for c in caught):
                    found.add(f"{path.name}: line {node.lineno} catches everything")
    assert found == set()
