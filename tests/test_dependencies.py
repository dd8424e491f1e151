"""The runtime dependencies declared in pyproject.toml are exactly the
third-party modules that the package's sources import."""
import ast
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deltacasimir"


def _imported_top_level_modules():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = set()
    for req in project["dependencies"]:
        for sep in "<>=!~;[ ":
            req = req.split(sep, 1)[0]
        names.add(req.strip().lower())
    return names


def test_every_third_party_import_is_declared_and_nothing_more():
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) \
        - {"__future__", "deltacasimir"}
    assert third_party == _declared_dependencies() == {"numpy"}


def test_one_function_checks_scalar_inputs():
    """``errors.require_real`` is the package's one scalar-input check: no
    other module imports ``numbers``, and the per-module validators it
    replaced stay gone."""
    retired = {"_is_real", "_check_qd", "_require_d", "_check_positive"}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = {node.module}
            else:
                imported = set()
            assert "numbers" not in imported or path.name == "errors.py", path.name
            if isinstance(node, ast.FunctionDef):
                assert node.name not in retired, (path.name, node.name)
